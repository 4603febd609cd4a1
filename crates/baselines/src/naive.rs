//! An Esper-like comparator: multi-threaded, but synchronised on a global
//! window-state lock and materialising every tuple as boxed values.
//!
//! The paper attributes Esper's two-orders-of-magnitude lower throughput to
//! "the synchronisation overhead of its implementation and the lack of GPGPU
//! acceleration" (§6.2). This engine reproduces exactly those two properties:
//! any number of feeder threads may call [`NaiveEngine::process`], but each
//! tuple takes the global lock, is deserialised into a `Vec<Value>`, and the
//! window state is updated tuple-at-a-time with no incremental computation.

use saber_query::aggregate::{AggState, AggregateFunction};
use saber_query::{OperatorDef, Query};
use saber_types::sync::Mutex;
use saber_types::{Result, RowBuffer, SaberError, Value};
use std::collections::{BTreeMap, VecDeque};

/// A decoded tuple retained in the window state.
type DecodedTuple = Vec<Value>;

struct WindowState {
    /// All tuples currently inside the window (per-tuple allocation, as in a
    /// heap-based engine).
    tuples: VecDeque<(u64, DecodedTuple)>,
    /// Results emitted so far.
    results_emitted: u64,
    /// Next position (count-based windows).
    next_position: u64,
    /// Windows closed so far.
    windows_closed: u64,
}

/// The naive engine: one query, global lock, per-tuple processing.
pub struct NaiveEngine {
    query: Query,
    state: Mutex<WindowState>,
}

impl NaiveEngine {
    /// Creates the engine for a single-input query.
    pub fn new(query: Query) -> Result<Self> {
        if query.num_inputs() != 1 {
            return Err(SaberError::Query(
                "the naive comparator engine supports single-input queries only".into(),
            ));
        }
        Ok(Self {
            query,
            state: Mutex::new(WindowState {
                tuples: VecDeque::new(),
                results_emitted: 0,
                next_position: 0,
                windows_closed: 0,
            }),
        })
    }

    /// Processes a buffer of input rows tuple-at-a-time. Safe to call from
    /// multiple threads (they serialise on the global lock, which is the
    /// point of this baseline). Returns the number of result rows produced.
    pub fn process(&self, rows: &RowBuffer) -> u64 {
        let window = *self.query.window(0);
        let mut produced = 0u64;
        for i in 0..rows.len() {
            // Per-tuple deserialisation into heap-allocated values.
            let decoded: DecodedTuple = rows.row(i).to_values();
            let mut state = self.state.lock();
            let position = state.next_position;
            state.next_position += 1;
            state.tuples.push_back((position, decoded));
            // Evict tuples that left the (count-based) window.
            let horizon = position.saturating_sub(window.size().saturating_sub(1));
            while let Some((p, _)) = state.tuples.front() {
                if *p < horizon {
                    state.tuples.pop_front();
                } else {
                    break;
                }
            }
            // A window closes whenever the position reaches a slide boundary
            // past the first full window.
            if position + 1 >= window.size()
                && (position + 1 - window.size()).is_multiple_of(window.slide())
            {
                produced += self.evaluate_window(&mut state);
                state.windows_closed += 1;
            }
        }
        produced
    }

    /// Evaluates the query's operators over the current window content
    /// (re-computing everything from scratch, as a non-incremental engine
    /// does).
    fn evaluate_window(&self, state: &mut WindowState) -> u64 {
        let mut filtered: Vec<&DecodedTuple> = Vec::new();
        'tuples: for (_, tuple) in state.tuples.iter() {
            for op in &self.query.operators {
                if let OperatorDef::Selection(sel) = op {
                    let values: Vec<f64> = tuple.iter().map(|v| v.as_f64()).collect();
                    if !eval_bool(&sel.predicate, &values) {
                        continue 'tuples;
                    }
                }
            }
            filtered.push(tuple);
        }
        let produced = match self.query.operators.last() {
            Some(OperatorDef::Aggregation(agg)) => {
                let mut groups: BTreeMap<Vec<i64>, Vec<AggState>> = BTreeMap::new();
                for tuple in &filtered {
                    let values: Vec<f64> = tuple.iter().map(|v| v.as_f64()).collect();
                    let keys: Vec<i64> = agg.group_by.iter().map(|&c| values[c] as i64).collect();
                    let states = groups
                        .entry(keys)
                        .or_insert_with(|| vec![AggState::new(); agg.aggregates.len()]);
                    for (s, spec) in states.iter_mut().zip(agg.aggregates.iter()) {
                        match spec.function {
                            AggregateFunction::Count => s.update(1.0),
                            _ => s.update(values[spec.column.unwrap_or(0)]),
                        }
                    }
                }
                groups.len() as u64
            }
            _ => filtered.len() as u64,
        };
        state.results_emitted += produced;
        produced
    }

    /// Total result rows emitted.
    pub fn results_emitted(&self) -> u64 {
        self.state.lock().results_emitted
    }

    /// Number of windows evaluated.
    pub fn windows_closed(&self) -> u64 {
        self.state.lock().windows_closed
    }
}

fn eval_numeric(expr: &saber_query::Expr, values: &[f64]) -> f64 {
    use saber_query::Expr as E;
    match expr {
        E::Column(i) => values.get(*i).copied().unwrap_or(0.0),
        E::Literal(v) => *v,
        E::Arith(op, l, r) => {
            let a = eval_numeric(l, values);
            let b = eval_numeric(r, values);
            use saber_query::BinaryOp::*;
            match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        0.0
                    } else {
                        a / b
                    }
                }
                Mod => {
                    if b == 0.0 {
                        0.0
                    } else {
                        a % b
                    }
                }
            }
        }
        other => eval_bool(other, values) as i64 as f64,
    }
}

fn eval_bool(expr: &saber_query::Expr, values: &[f64]) -> bool {
    use saber_query::Expr as E;
    match expr {
        E::Compare(op, l, r) => {
            let a = eval_numeric(l, values);
            let b = eval_numeric(r, values);
            use saber_query::CompareOp::*;
            match op {
                Eq => a == b,
                Ne => a != b,
                Lt => a < b,
                Le => a <= b,
                Gt => a > b,
                Ge => a >= b,
            }
        }
        E::And(l, r) => eval_bool(l, values) && eval_bool(r, values),
        E::Or(l, r) => eval_bool(l, values) || eval_bool(r, values),
        E::Not(e) => !eval_bool(e, values),
        other => eval_numeric(other, values) != 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{AggregateFunction, Expr, QueryBuilder};
    use saber_types::{DataType, Schema};

    fn schema() -> saber_types::schema::SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    fn data(n: usize) -> RowBuffer {
        let mut buf = RowBuffer::new(schema());
        for i in 0..n {
            buf.push_values(&[
                Value::Timestamp(i as i64),
                Value::Float(i as f32),
                Value::Int((i % 4) as i32),
            ])
            .unwrap();
        }
        buf
    }

    #[test]
    fn tumbling_count_aggregation_produces_one_result_per_group_per_window() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(8, 8)
            .aggregate(AggregateFunction::Sum, 1)
            .group_by(vec![2])
            .build()
            .unwrap();
        let engine = NaiveEngine::new(q).unwrap();
        let produced = engine.process(&data(32));
        // 4 windows × 4 groups.
        assert_eq!(produced, 16);
        assert_eq!(engine.windows_closed(), 4);
        assert_eq!(engine.results_emitted(), 16);
    }

    #[test]
    fn selection_counts_match_per_window_content() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::column(2).eq(Expr::literal(1.0)))
            .build()
            .unwrap();
        let engine = NaiveEngine::new(q).unwrap();
        let produced = engine.process(&data(16));
        // Each 4-row window contains exactly one key==1 row.
        assert_eq!(produced, 4);
    }

    #[test]
    fn sliding_windows_reevaluate_overlapping_content() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(8, 2)
            .aggregate(AggregateFunction::Count, 1)
            .build()
            .unwrap();
        let engine = NaiveEngine::new(q).unwrap();
        engine.process(&data(16));
        // Windows closing at positions 8, 10, 12, 14, 16 → 5 windows.
        assert_eq!(engine.windows_closed(), 5);
    }

    #[test]
    fn join_queries_are_rejected() {
        let q = QueryBuilder::new("join", schema())
            .count_window(4, 4)
            .theta_join(
                schema(),
                saber_query::WindowSpec::count(4, 4),
                Expr::literal(1.0),
            )
            .build()
            .unwrap();
        assert!(NaiveEngine::new(q).is_err());
    }
}
