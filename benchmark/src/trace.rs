//! The traced run's bookkeeping: the per-layer metric table, stage-latency
//! histograms cut to the paced phase, and the in-memory spans written out
//! when the run ends.

use crate::check::QueryShape;
use crate::json::Json;
use crate::run::BatchLog;
use crate::spec::PER_LAYER;
use crate::stats;
use saber::engine::{HistogramSnapshot, STAGE_NAMES};
use saber::obs::bucket_bounds;
use std::ops::Range;
use std::path::Path;

/// Rows per engine task at the default φ = 1 MB over 32-byte rows: the
/// dispatcher cuts a task each time this many rows are pending.
pub const TASK_ROWS: u64 = (1 << 20) / crate::gen::ROW as u64;
/// Batches and windows of the paced phase that get spans; later ones would
/// only repeat them and bloat the trace file.
const SPAN_BATCHES: u64 = 4000;
const SPAN_WINDOWS: usize = 8000;

/// Per-layer metric values, one slot per `spec::PER_LAYER` name. A layer the
/// workload does not cross stays unset.
pub struct Layers(Vec<Option<f64>>);

impl Layers {
    pub fn new() -> Layers {
        Layers(vec![None; PER_LAYER.len()])
    }

    fn slot(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not in spec::PER_LAYER"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0[Self::slot(name)] = Some(value);
    }

    /// The value set for `name`, 0 while unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0[Self::slot(name)].unwrap_or(0.0)
    }

    /// Sets `<prefix><index>`, e.g. `gpu.task_share_q` + 1.
    pub fn set_indexed(&mut self, prefix: &str, index: usize, value: f64) {
        self.set(&format!("{prefix}{index}"), value);
    }

    /// Sets the `engine.stage.*` metrics from per-stage histograms in
    /// `STAGE_NAMES` order.
    pub fn set_stages(&mut self, stages: &[StageHist]) {
        for (name, hist) in STAGE_NAMES.iter().zip(stages) {
            self.set(
                &format!("engine.stage.{name}_ms_p50"),
                hist.quantile(0.5) * 1e3,
            );
        }
        if let Some(total) = stages.last() {
            self.set("engine.stage.total_ms_p99", total.quantile(0.99) * 1e3);
        }
    }

    /// Engine time after the task cut — queue, schedule, exec, deliver — as
    /// the sum of the stage medians (ms).
    pub fn engine_after_cut_ms(&self) -> f64 {
        ["queue", "schedule", "exec", "deliver"]
            .iter()
            .map(|s| self.get(&format!("engine.stage.{s}_ms_p50")))
            .sum()
    }

    /// The metrics that were set, in table order.
    pub fn into_pairs(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .zip(self.0)
            .filter_map(|((name, _, _), v)| Some((*name, v?)))
            .collect()
    }
}

/// A latency histogram as `(bucket upper bound in seconds, count)` pairs in
/// ascending order — the common form of an in-process `HistogramSnapshot`
/// and a scraped Prometheus histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageHist(pub Vec<(f64, u64)>);

impl StageHist {
    /// Nearest-rank quantile in seconds: the upper bound of the bucket that
    /// holds the sample of that rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.0.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (upper, count) in &self.0 {
            seen += count;
            if seen >= rank {
                return *upper;
            }
        }
        self.0.last().map_or(0.0, |(upper, _)| *upper)
    }
}

/// What each stage histogram recorded between two snapshots.
pub fn hist_delta(before: &[HistogramSnapshot], after: &[HistogramSnapshot]) -> Vec<StageHist> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| {
            StageHist(
                a.buckets()
                    .iter()
                    .zip(b.buckets())
                    .enumerate()
                    .filter(|(_, (a, b))| a > b)
                    .map(|(i, (a, b))| (bucket_bounds(i).1 as f64 / 1e9, a - b))
                    .collect(),
            )
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The batch the span belongs to; spans of one batch share it.
    pub batch: u64,
}

/// Batch whose hand-over makes the dispatcher cut the task holding batch
/// `k`. A cut takes every pending row once `TASK_ROWS` are pending, so tasks
/// are runs of `ceil(TASK_ROWS / batch_rows)` whole batches from the start
/// of the stream.
pub fn cutting_batch(k: u64, batch_rows: usize) -> u64 {
    let per_task = TASK_ROWS.div_ceil(batch_rows as u64);
    k / per_task * per_task + per_task - 1
}

/// Benchmark-side spans of the paced phase, rebuilt from the send log, the
/// acks and the first statement's window receive times. Per batch: `batch`
/// (due → hand-over done), under it `gen.lag` (due → sent) and `handover`
/// (sent → done), `net.ack` (sent → ack) when there are acks. Per window:
/// `window` (due of its closing batch → receive) under that batch, and
/// under it `fill_wait` (closing batch sent → the batch that cuts its task
/// sent).
pub fn build_spans(
    log: &BatchLog,
    ack_ns: &[u64],
    paced: Range<u64>,
    shape: &QueryShape,
    batch_rows: usize,
    recv_ns: &[u64],
) -> Vec<Span> {
    let mut spans = Vec::new();
    let first = paced.start;
    let last = paced.end.min(first + SPAN_BATCHES);
    let mut root_of = Vec::new();
    for k in first..last {
        let i = k as usize;
        let root = spans.len();
        root_of.push(root);
        let mut push = |name, start_ns, end_ns, parent| {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                batch: k,
            })
        };
        push("batch", log.due_ns[i], log.done_ns[i], None);
        push("gen.lag", log.due_ns[i], log.sent_ns[i], Some(root));
        push("handover", log.sent_ns[i], log.done_ns[i], Some(root));
        if let Some(&ack) = ack_ns.get(i) {
            push("net.ack", log.sent_ns[i], ack, Some(root));
        }
    }
    let mut windows = 0;
    for (w, &t) in recv_ns.iter().enumerate() {
        let closing = shape.closing_batch(w as u64, batch_rows);
        if t == u64::MAX || !(first..last).contains(&closing) || windows == SPAN_WINDOWS {
            continue;
        }
        windows += 1;
        let parent = root_of[(closing - first) as usize];
        let cutting = cutting_batch(closing, batch_rows) as usize;
        let window = spans.len();
        spans.push(Span {
            name: "window",
            start_ns: log.due_ns[closing as usize],
            end_ns: t,
            parent: Some(parent),
            batch: closing,
        });
        if let Some(&cut_sent) = log.sent_ns.get(cutting) {
            spans.push(Span {
                name: "fill_wait",
                start_ns: log.sent_ns[closing as usize],
                end_ns: cut_sent,
                parent: Some(window),
                batch: closing,
            });
        }
    }
    spans
}

/// Median duration (ms) of the spans called `name`.
pub fn span_median_ms(spans: &[Span], name: &str) -> f64 {
    let durations = stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect(),
    );
    stats::percentile(&durations, 0.5)
}

pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let items = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Str(s.name.into()),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                Json::Num(s.batch as f64),
            ])
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("workload", Json::Str(workload.into()));
    doc.set(
        "columns",
        Json::Arr(
            ["name", "start_ns", "end_ns", "parent", "batch"]
                .iter()
                .map(|c| Json::Str((*c).into()))
                .collect(),
        ),
    );
    doc.set("spans", Json::Arr(items));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber::obs::Histogram;

    #[test]
    fn stage_histogram_delta_keeps_only_the_phase() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000_000); // warm-up: 1 ms
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(8_000_000); // phase: 8 ms
        }
        let delta = &hist_delta(&[before], &[h.snapshot()])[0];
        assert_eq!(delta.0.iter().map(|(_, c)| c).sum::<u64>(), 10);
        let p50 = delta.quantile(0.5);
        assert!((0.008..0.0086).contains(&p50), "{p50}");
        assert_eq!(StageHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn the_cutting_batch_is_the_one_that_fills_the_task() {
        // 12K-row batches: three reach 1 MB, so tasks are batch triples.
        assert_eq!(cutting_batch(0, 12 * 1024), 2);
        assert_eq!(cutting_batch(2, 12 * 1024), 2);
        assert_eq!(cutting_batch(3, 12 * 1024), 5);
        // 1024-row frames: 32 per task.
        assert_eq!(cutting_batch(0, 1024), 31);
        assert_eq!(cutting_batch(40, 1024), 63);
    }

    #[test]
    fn layers_reject_unknown_names_and_keep_table_order() {
        let mut layers = Layers::new();
        layers.set("gen.cpu_s", 1.5);
        layers.set_indexed("gpu.task_share_q", 1, 0.4);
        assert_eq!(layers.get("gen.cpu_s"), 1.5);
        assert_eq!(layers.get("net.ack_ms_p50"), 0.0);
        assert_eq!(
            layers.into_pairs(),
            vec![("gen.cpu_s", 1.5), ("gpu.task_share_q1", 0.4)]
        );
        assert!(std::panic::catch_unwind(|| Layers::new().set("no.such", 1.0)).is_err());
    }
}
