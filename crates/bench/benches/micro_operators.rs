//! Operator-kernel micro-benchmarks: row interpreter vs. batch-columnar
//! scalar vs. batch-columnar SIMD, per operator and batch size.
//!
//! Each vectorizable operator shape — selection, windowed aggregation and
//! the equi-join probe — is executed over identical stream batches with the
//! plan's kernel pinned to each of the three [`KernelKind`]s, sweeping the
//! batch size. Reported columns are processing throughput in MB/s plus two
//! ratios: `simd_vs_scalar` (columnar-SIMD over columnar-scalar — the
//! explicit-AVX2 delta alone) and `columnar_vs_row` (columnar-scalar over
//! the row interpreter — the batching/layout win). The headline speed-up of
//! the columnar rework is their product, i.e. `simd_mb_s / row_mb_s`: the
//! vectorized kernel against the scalar row-at-a-time interpreter that
//! previously executed these operators (≥2× on every operator here). The
//! `simd_vs_scalar` column isolates a smaller effect by design — the
//! columnar-scalar fallback is written in fixed 4-lane shape precisely so
//! the compiler auto-vectorizes it (it is the byte-identical correctness
//! reference, not a strawman), so selection/aggregation sit near parity
//! there while the data-dependent equi-probe scan, which auto-vectorization
//! cannot touch, shows the full AVX2 win. The accelerator kernels are
//! measured separately by fig. 8; this harness is
//! single-threaded CPU only.
//!
//! All three kernels produce identical output (byte-identical for selection
//! and join; see `saber_cpu/tests/simd_differential.rs`), so the ratios are
//! like-for-like. On hosts without AVX2 — or under `SABER_FORCE_SCALAR=1` —
//! the SIMD kernel degrades to the scalar one and `simd_vs_scalar` is ~1.0
//! by construction. The numbers are single-core by nature (one executor
//! thread); unlike the ingest-scaling ablation this harness does not need a
//! multi-core host, but containers throttled below one full core will
//! depress absolute MB/s while leaving the ratios meaningful.

use saber_bench::{fmt, measure_duration, Report};
use saber_cpu::{CompiledPlan, CpuExecutor, KernelKind, StreamBatch, TaskOutput};
use saber_query::AggregateFunction;
use saber_workloads::synthetic;
use std::time::Instant;

/// Measures one plan+kernel combination, returning bytes/second processed.
fn throughput(plan: &CompiledPlan, batches: &[StreamBatch], bytes_per_iter: usize) -> f64 {
    let executor = CpuExecutor::new();
    // Warm up (page in the batch, resolve the dispatch) before timing.
    let warm = executor.execute(plan, batches).unwrap();
    std::hint::black_box(warm.row_count());
    let budget = measure_duration().min(std::time::Duration::from_millis(400));
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        let out = executor.execute(plan, batches).unwrap();
        std::hint::black_box(match &out {
            TaskOutput::Rows(rows) => rows.len(),
            TaskOutput::Fragments { panes, .. } => panes.len(),
        });
        iters += 1;
        if iters >= 3 && start.elapsed() >= budget {
            break;
        }
    }
    (iters as f64 * bytes_per_iter as f64) / start.elapsed().as_secs_f64()
}

fn kernel_row(
    report: &mut Report,
    operator: &str,
    rows: usize,
    plan: &CompiledPlan,
    batches: &[StreamBatch],
) {
    let bytes: usize = batches
        .iter()
        .map(|b| b.new_rows() * synthetic::TUPLE_SIZE)
        .sum();
    let mut rates = [0.0f64; 3];
    for (i, kind) in [
        KernelKind::Row,
        KernelKind::ColumnarScalar,
        KernelKind::ColumnarSimd,
    ]
    .into_iter()
    .enumerate()
    {
        let plan = plan.clone().with_kernel(kind);
        assert_eq!(plan.kernel(), kind, "operator must support {kind:?}");
        rates[i] = throughput(&plan, batches, bytes);
    }
    let mb = 1024.0 * 1024.0;
    report.add_row(vec![
        operator.to_string(),
        rows.to_string(),
        fmt(rates[0] / mb),
        fmt(rates[1] / mb),
        fmt(rates[2] / mb),
        fmt(rates[2] / rates[1].max(1e-9)),
        fmt(rates[1] / rates[0].max(1e-9)),
    ]);
}

fn main() {
    let mut report = Report::new(
        "micro_operators",
        "Operator kernels: row vs columnar-scalar vs columnar-SIMD (single core)",
        &[
            "operator",
            "rows",
            "row_mb_s",
            "scalar_mb_s",
            "simd_mb_s",
            "simd_vs_scalar",
            "columnar_vs_row",
        ],
    );
    let schema = synthetic::schema();
    let w = synthetic::window_bytes(32 * 1024, 32 * 1024);

    // Selection: 8 conjunctive range predicates over the integer columns.
    let select = CompiledPlan::compile(&synthetic::select(8, w)).unwrap();
    // Windowed aggregation: ungrouped sum over the float column.
    let agg = CompiledPlan::compile(&synthetic::agg(AggregateFunction::Sum, w)).unwrap();
    for rows in [8 * 1024, 32 * 1024, 128 * 1024] {
        let batch = StreamBatch::new(synthetic::generate(&schema, rows, 5), 0, 0);
        kernel_row(
            &mut report,
            "selection",
            rows,
            &select,
            std::slice::from_ref(&batch),
        );
        kernel_row(
            &mut report,
            "aggregation",
            rows,
            &agg,
            std::slice::from_ref(&batch),
        );
    }

    // Equi-join probe: the synthetic JOIN's first predicate is an equality
    // on a 64-value key domain, so the plan compiles to the equi fast path.
    // Probe work grows with window size × batch size — sweep smaller sizes.
    let join =
        CompiledPlan::compile(&synthetic::join(2, synthetic::window_bytes(4096, 4096))).unwrap();
    for rows in [1024, 4 * 1024, 16 * 1024] {
        let batches = [
            StreamBatch::new(synthetic::generate(&schema, rows, 5), 0, 0),
            StreamBatch::new(synthetic::generate(&schema, rows, 11), 0, 0),
        ];
        kernel_row(&mut report, "join_probe", rows, &join, &batches);
    }

    report.finish();
}
