//! Operator-kernel micro-benchmarks: batch-columnar scalar vs. SIMD, per
//! operator and batch size.
//!
//! Each operator shape — selection, ungrouped and grouped windowed
//! aggregation, and the equi-join probe — is executed over identical stream
//! batches with the plan's kernel pinned to each [`KernelKind`], sweeping the
//! batch size. Reported columns are processing throughput in MB/s plus
//! `simd_vs_scalar` (SIMD over scalar — the explicit-AVX2 delta alone). That
//! column isolates a small effect by design: the scalar fallback is written
//! in fixed 4-lane shape precisely so the compiler auto-vectorizes it (it is
//! the byte-identical correctness reference, not a strawman), so selection
//! and aggregation sit near parity while the data-dependent equi-probe scan,
//! which auto-vectorization cannot touch, shows the full AVX2 win. The
//! accelerator runs these same operator functions on its execute stage and is
//! measured separately by fig. 8; this harness is single-threaded CPU only.
//!
//! Both kernels produce identical output (see
//! `saber_cpu/tests/simd_differential.rs`), so the ratio is like-for-like. On
//! hosts without AVX2 — or under `SABER_FORCE_SCALAR=1` — the SIMD kernel
//! degrades to the scalar one and `simd_vs_scalar` is ~1.0 by construction.
//! The numbers are single-core by nature (one executor thread); containers
//! throttled below one full core will depress absolute MB/s while leaving
//! the ratio meaningful.

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
    let [scalar, simd] = [KernelKind::Scalar, KernelKind::Simd]
        .map(|kind| throughput(&plan.clone().with_kernel(kind), batches, bytes));
    let mb = 1024.0 * 1024.0;
    report.add_row(vec![
        operator.to_string(),
        rows.to_string(),
        fmt(scalar / mb),
        fmt(simd / mb),
        fmt(simd / scalar.max(1e-9)),
    ]);
}

fn main() {
    let mut report = Report::new(
        "micro_operators",
        "Operator kernels: columnar scalar vs SIMD (single core)",
        &[
            "operator",
            "rows",
            "scalar_mb_s",
            "simd_mb_s",
            "simd_vs_scalar",
        ],
    );
    let schema = synthetic::schema();
    let w = synthetic::window_bytes(32 * 1024, 32 * 1024);

    // Selection: 8 conjunctive range predicates over the integer columns.
    let select = CompiledPlan::compile(&synthetic::select(8, w)).unwrap();
    // Windowed aggregation: ungrouped sum over the float column, and
    // COUNT + SUM grouped into 64 groups.
    let agg = CompiledPlan::compile(&synthetic::agg(AggregateFunction::Sum, w)).unwrap();
    let group_by = CompiledPlan::compile(&synthetic::group_by(64, w)).unwrap();
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
        kernel_row(
            &mut report,
            "group_by",
            rows,
            &group_by,
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
