//! The assembly operator function `f_a` for aggregation (paper §3, §4.3).
//!
//! Query tasks produce *window fragments*: per-pane partial aggregation
//! states restricted to the rows of one stream batch. The result stage feeds
//! those fragments — in query-task order — into an [`AggregationAssembler`],
//! which merges partials for the same pane across tasks, finalises every
//! window whose end lies at or before the stream position the tasks have
//! reached, evaluates HAVING, and appends the window results to the output
//! stream.
//!
//! Two assembly strategies are used:
//!
//! * the **general path** merges the `panes_per_window` pane tables of each
//!   finalised window, in pane order, into one scratch table that the
//!   assembler clears and reuses for every window, then emits its groups in
//!   key order (needed for GROUP-BY, MIN/MAX and COUNT DISTINCT), and
//! * the **incremental path** (ungrouped, invertible aggregates — COUNT, SUM,
//!   AVG) keeps a running window state and slides it by adding the panes that
//!   enter and subtracting the panes that leave, giving O(panes-per-slide)
//!   work per window regardless of the window size. This is the incremental
//!   sliding-window computation of §5.3.

use crate::exec::PanePartial;
use crate::hashtable::GroupTable;
use crate::plan::{AggregationPlan, CompiledPlan, PlanKind};
use saber_query::aggregate::{AggState, AggregateFunction};
use saber_query::WindowIndex;
use saber_types::schema::SchemaRef;
use saber_types::{DataType, Result, RowBuffer, TupleRef};
use std::collections::BTreeMap;

/// Assembles window results from the window-fragment outputs of an
/// aggregation query's tasks.
#[derive(Debug)]
pub struct AggregationAssembler {
    agg: AggregationPlan,
    functions: Vec<AggregateFunction>,
    output_schema: SchemaRef,
    /// Merged per-pane partials, keyed by pane index.
    panes: BTreeMap<u64, GroupTable>,
    /// Next window index to finalise.
    next_window: WindowIndex,
    /// Running state for the incremental (ungrouped, invertible) path.
    running: Option<Vec<AggState>>,
    /// The general path's window table: cleared and refilled per window.
    window_table: GroupTable,
    /// `window_table`'s group indices in key order.
    order: Vec<u32>,
    /// Scratch row used for HAVING evaluation.
    scratch: Vec<u8>,
    /// Total number of windows emitted so far.
    windows_emitted: u64,
}

impl AggregationAssembler {
    /// Creates an assembler for an aggregation plan; returns `None` for plans
    /// that do not produce window fragments.
    pub fn new(plan: &CompiledPlan) -> Option<Self> {
        match plan.kind() {
            PlanKind::Aggregation(a) => Some(Self {
                functions: a.functions(),
                agg: a.clone(),
                output_schema: plan.output_schema().clone(),
                panes: BTreeMap::new(),
                next_window: 0,
                running: None,
                window_table: GroupTable::new(a.group_exprs.len(), &a.functions()),
                order: Vec::new(),
                scratch: Vec::new(),
                windows_emitted: 0,
            }),
            _ => None,
        }
    }

    /// True when the incremental sliding path applies.
    fn incremental(&self) -> bool {
        self.agg.group_exprs.is_empty()
            && self.functions.iter().all(|f| {
                matches!(
                    f,
                    AggregateFunction::Count | AggregateFunction::Sum | AggregateFunction::Avg
                )
            })
    }

    /// Number of windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.windows_emitted
    }

    /// Accepts the window-fragment output of the next query task (in task
    /// order), finalises every window that closed at or before `progress`,
    /// and appends the window results to `out`. Returns the number of windows
    /// finalised.
    pub fn accept(
        &mut self,
        fragments: Vec<PanePartial>,
        progress: u64,
        out: &mut RowBuffer,
    ) -> Result<usize> {
        // Merge the task's pane partials into the buffered panes.
        for fragment in fragments {
            match self.panes.get_mut(&fragment.pane) {
                Some(existing) => existing.merge(&fragment.table),
                None => {
                    self.panes.insert(fragment.pane, fragment.table);
                }
            }
        }

        let window = self.agg.window;
        let pane_length = self.agg.pane_length.max(1);
        let mut emitted = 0usize;

        while window.window_end(self.next_window) <= progress {
            let w = self.next_window;
            let start = window.window_start(w);
            let end = window.window_end(w);
            let first_pane = start / pane_length;
            let last_pane = end.div_ceil(pane_length);

            if self.incremental() {
                self.emit_incremental(w, first_pane, last_pane, out)?;
            } else {
                self.emit_general(w, first_pane, last_pane, out)?;
            }
            emitted += 1;
            self.windows_emitted += 1;
            self.next_window += 1;

            // Evict panes no future window can reference.
            let keep_from = window.window_start(self.next_window) / pane_length;
            if self.incremental() {
                // The incremental path still needs panes inside the current
                // running window for subtraction; they are evicted lazily as
                // the window slides past them.
                let keep = keep_from.min(first_pane);
                self.evict_before(keep);
            } else {
                self.evict_before(keep_from);
            }
        }
        Ok(emitted)
    }

    fn evict_before(&mut self, pane: u64) {
        self.panes.retain(|&p, _| p >= pane);
    }

    /// General assembly: merge every pane of the window into the window
    /// table, in pane order, and emit its groups in key order.
    fn emit_general(
        &mut self,
        w: WindowIndex,
        first_pane: u64,
        last_pane: u64,
        out: &mut RowBuffer,
    ) -> Result<()> {
        let merged = &mut self.window_table;
        merged.clear();
        for (_, table) in self.panes.range(first_pane..last_pane) {
            merged.merge(table);
        }
        let (agg, schema, merged) = (&self.agg, &self.output_schema, &self.window_table);
        self.order.clear();
        self.order.extend(0..merged.len() as u32);
        self.order
            .sort_unstable_by(|&a, &b| merged.keys(a as usize).cmp(merged.keys(b as usize)));
        for &g in &self.order {
            let (keys, states) = (merged.keys(g as usize), merged.states(g as usize));
            emit_row(agg, schema, &mut self.scratch, w, keys, states, out)?;
        }
        Ok(())
    }

    /// Incremental assembly: slide the running state to window `w` by adding
    /// entering panes and subtracting leaving panes.
    fn emit_incremental(
        &mut self,
        w: WindowIndex,
        first_pane: u64,
        last_pane: u64,
        out: &mut RowBuffer,
    ) -> Result<()> {
        let n = self.functions.len();
        if self.running.is_none() {
            // Initialise by summing the window's panes once.
            let mut states = vec![AggState::new(); n];
            for (_, table) in self.panes.range(first_pane..last_pane) {
                if let Some(s) = table.get(&[]) {
                    for (acc, part) in states.iter_mut().zip(s.iter()) {
                        acc.merge(part);
                    }
                }
            }
            self.running = Some(states);
        } else if let Some(running) = self.running.as_mut() {
            // Slide: previous window was w-1 covering panes
            // [first_pane - panes_per_slide, last_pane - panes_per_slide).
            let panes = self.agg.window.panes();
            let shift = panes.panes_per_slide;
            let prev_first = first_pane - shift;
            // Subtract panes that left the window.
            for p in prev_first..first_pane {
                if let Some(table) = self.panes.get(&p) {
                    if let Some(s) = table.get(&[]) {
                        for (acc, part) in running.iter_mut().zip(s.iter()) {
                            acc.sum -= part.sum;
                            acc.count -= part.count;
                        }
                    }
                }
            }
            // Add panes that entered the window.
            for p in (last_pane - shift)..last_pane {
                if let Some(table) = self.panes.get(&p) {
                    if let Some(s) = table.get(&[]) {
                        for (acc, part) in running.iter_mut().zip(s.iter()) {
                            acc.sum += part.sum;
                            acc.count += part.count;
                        }
                    }
                }
            }
        }
        let states = self.running.as_deref().unwrap_or_default();
        if states.iter().all(|s| s.count == 0) {
            return Ok(());
        }
        let (agg, schema) = (&self.agg, &self.output_schema);
        emit_row(agg, schema, &mut self.scratch, w, &[], states, out)?;
        // Evict panes that the running window has slid past.
        self.evict_before(first_pane.saturating_sub(self.agg.window.panes().panes_per_slide));
        Ok(())
    }
}

/// Builds one output row of `agg` (timestamp, group keys, finalised
/// aggregates) in `scratch` and appends it to `out` unless HAVING rejects
/// it.
fn emit_row(
    agg: &AggregationPlan,
    schema: &SchemaRef,
    scratch: &mut Vec<u8>,
    w: WindowIndex,
    keys: &[i64],
    states: &[AggState],
    out: &mut RowBuffer,
) -> Result<()> {
    scratch.clear();
    scratch.resize(schema.row_size(), 0);
    {
        let mut row = saber_types::TupleMut::new(schema, scratch);
        // Column 0: window timestamp (window start position).
        row.set_i64(0, agg.window.window_start(w) as i64);
        // Group key columns.
        for (gi, key) in keys.iter().enumerate() {
            let col = 1 + gi;
            match schema.data_type(col) {
                DataType::Float => row.set_f32(col, f32::from_bits(*key as u32)),
                DataType::Double => row.set_f64(col, f64::from_bits(*key as u64)),
                DataType::Int => row.set_i32(col, *key as i32),
                DataType::Long | DataType::Timestamp => row.set_i64(col, *key),
            }
        }
        // Aggregate columns.
        let agg_base = 1 + keys.len();
        for (ai, (state, (function, _))) in states.iter().zip(&agg.aggregates).enumerate() {
            row.set_numeric(agg_base + ai, state.finalize(*function));
        }
    }
    if let Some(having) = &agg.having {
        if !having.eval_bool(&TupleRef::new(schema, scratch)) {
            return Ok(());
        }
    }
    out.push_bytes(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{StreamBatch, TaskOutput};
    use crate::windowed;
    use saber_query::{AggregateFunction, Expr, QueryBuilder, WindowSpec};
    use saber_types::{Schema, Value};

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn make_batch(start: u64, n: usize) -> StreamBatch {
        let mut rows = RowBuffer::new(schema());
        for i in 0..n {
            let abs = start + i as u64;
            rows.push_values(&[
                Value::Timestamp(abs as i64),
                Value::Float(abs as f32),
                Value::Int((abs % 2) as i32),
            ])
            .unwrap();
        }
        StreamBatch::new(rows, start, start as i64)
    }

    fn run_pipeline(
        window: WindowSpec,
        grouped: bool,
        function: AggregateFunction,
        batches: Vec<StreamBatch>,
    ) -> RowBuffer {
        let mut b = QueryBuilder::new("agg", schema()).window(window);
        b = match function {
            AggregateFunction::Count => b.aggregate_count(),
            f => b.aggregate(f, 1),
        };
        if grouped {
            b = b.group_by(vec![2]);
        }
        let q = b.build().unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let mut assembler = AggregationAssembler::new(&plan).unwrap();
        let mut out = RowBuffer::new(plan.output_schema().clone());
        for batch in batches {
            match windowed::execute(&plan, &agg, &batch).unwrap() {
                TaskOutput::Fragments { panes, progress } => {
                    assembler.accept(panes, progress, &mut out).unwrap();
                }
                _ => unreachable!(),
            }
        }
        out
    }

    #[test]
    fn tumbling_count_over_single_batch() {
        // ω(4,4) over 16 rows: four complete windows, COUNT = 4 each.
        let out = run_pipeline(
            WindowSpec::count(4, 4),
            false,
            AggregateFunction::Count,
            vec![make_batch(0, 16)],
        );
        assert_eq!(out.len(), 4);
        for t in out.iter() {
            assert_eq!(t.get_i64(1), 4);
        }
        assert_eq!(out.row(2).timestamp(), 8);
    }

    #[test]
    fn windows_spanning_batches_are_assembled() {
        // ω(8,8) with two 12-row batches: windows 0,1,2 complete (24 rows).
        // Window 1 spans both batches (rows 8..16).
        let out = run_pipeline(
            WindowSpec::count(8, 8),
            false,
            AggregateFunction::Sum,
            vec![make_batch(0, 12), make_batch(12, 12)],
        );
        assert_eq!(out.len(), 3);
        // Window 1 sums values 8..=15 = 92.
        assert!((out.row(1).get_f32(1) - 92.0).abs() < 1e-3);
    }

    #[test]
    fn sliding_window_incremental_matches_reference() {
        // ω(8,2) SUM over 40 rows split into uneven batches; compare against
        // a brute-force reference.
        let batches = vec![make_batch(0, 7), make_batch(7, 13), make_batch(20, 20)];
        let out = run_pipeline(
            WindowSpec::count(8, 2),
            false,
            AggregateFunction::Sum,
            batches,
        );
        // Windows with end <= 40: windows 0..=16 (end = 2w+8 <= 40 → w <= 16).
        assert_eq!(out.len(), 17);
        for (i, t) in out.iter().enumerate() {
            let start = 2 * i as u64;
            let expected: f64 = (start..start + 8).map(|v| v as f64).sum();
            assert!(
                (t.get_f32(1) as f64 - expected).abs() < 1e-3,
                "window {i}: got {} expected {expected}",
                t.get_f32(1)
            );
        }
    }

    #[test]
    fn grouped_aggregation_emits_one_row_per_group() {
        let out = run_pipeline(
            WindowSpec::count(8, 8),
            true,
            AggregateFunction::Count,
            vec![make_batch(0, 16)],
        );
        // Two windows × two groups.
        assert_eq!(out.len(), 4);
        for t in out.iter() {
            assert_eq!(t.get_i64(2), 4);
        }
        // Rows for one window are sorted by group key.
        assert_eq!(out.row(0).get_i32(1), 0);
        assert_eq!(out.row(1).get_i32(1), 1);
    }

    #[test]
    fn avg_is_sum_over_count() {
        let out = run_pipeline(
            WindowSpec::count(4, 4),
            false,
            AggregateFunction::Avg,
            vec![make_batch(0, 8)],
        );
        assert_eq!(out.len(), 2);
        assert!((out.row(0).get_f32(1) - 1.5).abs() < 1e-6);
        assert!((out.row(1).get_f32(1) - 5.5).abs() < 1e-6);
    }

    #[test]
    fn min_max_use_general_path() {
        let out = run_pipeline(
            WindowSpec::count(4, 2),
            false,
            AggregateFunction::Max,
            vec![make_batch(0, 10)],
        );
        // Windows 0..=3 complete (end = 2w+4 <= 10).
        assert_eq!(out.len(), 4);
        for (i, t) in out.iter().enumerate() {
            let start = 2 * i as u64;
            assert_eq!(t.get_f32(1), (start + 3) as f32);
        }
    }

    #[test]
    fn incomplete_windows_are_not_emitted_until_progress_reaches_them() {
        let mut b = QueryBuilder::new("agg", schema())
            .count_window(8, 8)
            .aggregate_count();
        b = b.group_by(vec![]);
        let q = b.build().unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let mut asm = AggregationAssembler::new(&plan).unwrap();
        let mut out = RowBuffer::new(plan.output_schema().clone());
        // First batch covers half a window: nothing emitted.
        match windowed::execute(&plan, &agg, &make_batch(0, 4)).unwrap() {
            TaskOutput::Fragments { panes, progress } => {
                let emitted = asm.accept(panes, progress, &mut out).unwrap();
                assert_eq!(emitted, 0);
            }
            _ => unreachable!(),
        }
        // Second batch completes it.
        match windowed::execute(&plan, &agg, &make_batch(4, 4)).unwrap() {
            TaskOutput::Fragments { panes, progress } => {
                let emitted = asm.accept(panes, progress, &mut out).unwrap();
                assert_eq!(emitted, 1);
            }
            _ => unreachable!(),
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0).get_i64(1), 8);
        assert_eq!(asm.windows_emitted(), 1);
    }

    #[test]
    fn having_filters_window_results() {
        // COUNT per 4-row tumbling window, HAVING count > 10 → nothing passes.
        let schema = schema();
        let q = QueryBuilder::new("having", schema)
            .count_window(4, 4)
            .aggregate_count()
            .having(Expr::column(1).gt(Expr::literal(10.0)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let mut asm = AggregationAssembler::new(&plan).unwrap();
        let mut out = RowBuffer::new(plan.output_schema().clone());
        match windowed::execute(&plan, &agg, &make_batch(0, 16)).unwrap() {
            TaskOutput::Fragments { panes, progress } => {
                let emitted = asm.accept(panes, progress, &mut out).unwrap();
                assert_eq!(emitted, 4);
            }
            _ => unreachable!(),
        }
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn panes_are_evicted_after_use() {
        let out_spec = WindowSpec::count(4, 4);
        let mut b = QueryBuilder::new("agg", schema())
            .window(out_spec)
            .aggregate_count();
        b = b.group_by(vec![2]);
        let q = b.build().unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        let agg = match plan.kind() {
            PlanKind::Aggregation(a) => a.clone(),
            _ => unreachable!(),
        };
        let mut asm = AggregationAssembler::new(&plan).unwrap();
        let mut out = RowBuffer::new(plan.output_schema().clone());
        for b in 0..8u64 {
            match windowed::execute(&plan, &agg, &make_batch(b * 16, 16)).unwrap() {
                TaskOutput::Fragments { panes, progress } => {
                    asm.accept(panes, progress, &mut out).unwrap();
                }
                _ => unreachable!(),
            }
        }
        // Old panes must not accumulate without bound.
        assert!(asm.panes.len() <= 4);
    }

    #[test]
    fn assembler_is_only_built_for_aggregations() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        assert!(AggregationAssembler::new(&plan).is_none());
    }
}
