//! The grouped fold and the window assembler allocate per pane, never per
//! group.
//!
//! A counting global allocator tallies the allocations (including
//! reallocations) a thread makes while the sliding GROUP-BY shape of the
//! benchmark's q0 — `COUNT(*)`, `SUM(a1)` `GROUP BY a2` over
//! `ROWS 1024 SLIDE 512`, so 512-row panes, in 12 K-row tasks — runs through
//! `windowed::execute` and `AggregationAssembler::accept`. The count per
//! pane must stay under a small constant whether the key takes 64 or 4 096
//! values.

use saber_cpu::plan::{CompiledPlan, PlanKind};
use saber_cpu::{windowed, AggregationAssembler, StreamBatch, TaskOutput};
use saber_query::{AggregateFunction, QueryBuilder, WindowSpec};
use saber_types::{RowBuffer, Value};
use saber_workloads::synthetic;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread-local may already be gone during thread exit.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is bumping a thread-local counter, which
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const TASK_ROWS: usize = 12 * 1024;
const TASKS: usize = 8;
/// Allocations allowed per pane: the pane table's four arrays, a growth of
/// them when a pane has more groups than the one before, and the task's and
/// the assembler's fixed costs spread over the task's 24 panes.
const PER_PANE: f64 = 10.0;

/// Tasks of `TASK_ROWS` rows each whose `a2` takes `groups` values.
fn tasks(groups: u64) -> Vec<StreamBatch> {
    let schema = synthetic::schema();
    let mut state = 0x5abe_u64;
    (0..TASKS)
        .map(|t| {
            let start = (t * TASK_ROWS) as u64;
            let mut rows = RowBuffer::with_capacity(schema.clone(), TASK_ROWS);
            for i in 0..TASK_ROWS as u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = ((state >> 33) % groups) as i32;
                let mut values = vec![
                    Value::Timestamp((start + i) as i64),
                    Value::Float((state >> 40) as f32),
                    Value::Int(key),
                ];
                values.extend((3..7).map(|_| Value::Int(0)));
                rows.push_values(&values).unwrap();
            }
            StreamBatch::new(rows, start, start as i64)
        })
        .collect()
}

/// Allocations per pane over every task after the first, which warms the
/// assembler's reusable buffers.
fn allocations_per_pane(groups: u64) -> f64 {
    let q = QueryBuilder::new("q0", synthetic::schema())
        .window(WindowSpec::count(1024, 512))
        .aggregate_count()
        .aggregate(AggregateFunction::Sum, 1)
        .group_by(vec![2])
        .build()
        .unwrap();
    let plan = CompiledPlan::compile(&q).unwrap();
    let PlanKind::Aggregation(agg) = plan.kind() else {
        unreachable!("q0 is an aggregation")
    };
    let mut assembler = AggregationAssembler::new(&plan).unwrap();
    let mut out = RowBuffer::new(plan.output_schema().clone());
    let (mut measured, mut panes, mut windows) = (0, 0, 0);
    for (t, batch) in tasks(groups).iter().enumerate() {
        out.clear();
        let before = allocations();
        let TaskOutput::Fragments {
            panes: partials,
            progress,
        } = windowed::execute(&plan, agg, batch).unwrap()
        else {
            unreachable!("aggregations produce fragments")
        };
        let task_panes = partials.len();
        windows += assembler.accept(partials, progress, &mut out).unwrap();
        if t > 0 {
            measured += allocations() - before;
            panes += task_panes;
        }
    }
    assert_eq!(panes, (TASKS - 1) * TASK_ROWS / 512);
    assert_eq!(windows, TASKS * TASK_ROWS / 512 - 1);
    measured as f64 / panes as f64
}

#[test]
fn grouped_fold_and_assembly_allocate_per_pane_not_per_group() {
    for groups in [64, 4096] {
        let per_pane = allocations_per_pane(groups);
        assert!(
            per_pane <= PER_PANE,
            "{groups} groups: {per_pane:.1} allocations per pane"
        );
    }
}
