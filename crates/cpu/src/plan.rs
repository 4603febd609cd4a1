//! Query compilation: from logical operator pipelines to flat physical plans.
//!
//! The engine executes the *batch operator function* of a query many times
//! per second, so the logical pipeline (projection → selection → aggregation,
//! …) is compiled once into a flat form that can be evaluated in a single
//! scan over the raw input bytes:
//!
//! * chains of projections and selections collapse into one combined filter
//!   predicate and one list of output expressions over the *input* schema
//!   (no intermediate tuples are materialised),
//! * aggregation inputs (group-by columns, aggregate arguments) are rewritten
//!   as expressions over the input schema,
//! * join pipelines keep the join predicate plus rewritten post-processing.
//!
//! The same compiled plan drives both the CPU implementation (this crate) and
//! the simulated accelerator kernels (`saber-gpu`), which guarantees that the
//! two processors compute identical results for a given task.
//!
//! Every plan shape runs on the batch-columnar kernels; compilation records
//! which variant ([`KernelKind`]) — the best the hardware offers.

use crate::kernels::KernelKind;
use saber_query::aggregate::AggregateFunction;
use saber_query::expr::conjunction;
use saber_query::{
    AggregationSpec, CompareOp, Expr, OperatorDef, PartitionJoinSpec, Query, QueryId,
    StreamFunction, WindowSpec,
};
use saber_types::schema::SchemaRef;
use saber_types::{DataType, Result, SaberError};

/// Rewrites `expr` by replacing every `Column(i)` with `cols[i]`.
///
/// This is how operator pipelines are flattened: if a projection maps output
/// column `i` to expression `cols[i]` over the input schema, any later
/// operator expression over the projected schema can be rewritten to operate
/// directly on the input schema.
pub fn substitute(expr: &Expr, cols: &[Expr]) -> Expr {
    match expr {
        Expr::Column(i) => cols.get(*i).cloned().unwrap_or(Expr::Column(*i)),
        Expr::Literal(v) => Expr::Literal(*v),
        Expr::Arith(op, l, r) => Expr::Arith(
            *op,
            Box::new(substitute(l, cols)),
            Box::new(substitute(r, cols)),
        ),
        Expr::Compare(op, l, r) => Expr::Compare(
            *op,
            Box::new(substitute(l, cols)),
            Box::new(substitute(r, cols)),
        ),
        Expr::And(l, r) => Expr::And(Box::new(substitute(l, cols)), Box::new(substitute(r, cols))),
        Expr::Or(l, r) => Expr::Or(Box::new(substitute(l, cols)), Box::new(substitute(r, cols))),
        Expr::Not(e) => Expr::Not(Box::new(substitute(e, cols))),
    }
}

/// A flattened stateless pipeline: a single filtered scan with optional
/// projection, all expressed over the input schema.
#[derive(Debug, Clone)]
pub struct StatelessPlan {
    /// Combined selection predicate (conjunction of all selections), if any.
    pub filter: Option<Expr>,
    /// Output expressions and their types; `None` means the input row is
    /// forwarded unchanged (direct byte forwarding, §5.1).
    pub projection: Option<Vec<(Expr, DataType)>>,
}

/// A flattened aggregation pipeline.
#[derive(Debug, Clone)]
pub struct AggregationPlan {
    /// Pre-aggregation filter over the input schema, if any.
    pub filter: Option<Expr>,
    /// Group-by key expressions over the input schema.
    pub group_exprs: Vec<Expr>,
    /// Aggregate functions with their (rewritten) input expressions.
    pub aggregates: Vec<(AggregateFunction, Option<Expr>)>,
    /// HAVING predicate over the aggregation *output* schema, if any.
    pub having: Option<Expr>,
    /// The window definition of the aggregated input.
    pub window: WindowSpec,
    /// Pane length derived from the window (gcd of size and slide).
    pub pane_length: u64,
}

impl AggregationPlan {
    /// The aggregate functions in output order.
    pub fn functions(&self) -> Vec<AggregateFunction> {
        self.aggregates.iter().map(|(f, _)| *f).collect()
    }

    /// True if all aggregates are additive (mergeable by sum/count only),
    /// enabling the running-prefix fast path for ungrouped aggregation.
    pub fn all_additive(&self) -> bool {
        self.aggregates.iter().all(|(f, _)| f.is_additive())
    }
}

/// An equi-key decomposition of a θ-join predicate, extracted at compile
/// time when the predicate contains a conjunct of the form
/// `left-expr == right-expr` with each side referencing only one input.
///
/// The vectorized probe evaluates both key expressions column-wise and scans
/// the build side's key column with a SIMD equality sweep; the remaining
/// conjuncts (if any) run as a per-candidate residual check. Candidate
/// selection uses IEEE `f64` equality — exactly what the predicate's `Eq`
/// comparison computes — so the probe produces the pair set the whole
/// predicate would.
#[derive(Debug, Clone)]
pub struct EquiJoinKeys {
    /// Key expression over the *left* input schema.
    pub left_key: Expr,
    /// Key expression over the *right* input schema (combined-schema column
    /// indices shifted down by `left_width`).
    pub right_key: Expr,
    /// Conjunction of the predicate's remaining conjuncts over the combined
    /// schema; `None` when the equality was the whole predicate.
    pub residual: Option<Expr>,
}

/// A flattened θ-join pipeline.
#[derive(Debug, Clone)]
pub struct ThetaJoinPlan {
    /// Join predicate over the combined (left ++ right) schema.
    pub predicate: Expr,
    /// Equi-key decomposition of `predicate`, when one exists (enables the
    /// vectorized probe; semantically redundant with `predicate`).
    pub equi: Option<EquiJoinKeys>,
    /// Post-join filter over the combined schema, if any.
    pub post_filter: Option<Expr>,
    /// Post-join projection over the combined schema; `None` forwards the
    /// concatenated pair.
    pub post_projection: Option<Vec<(Expr, DataType)>>,
    /// Window of the left input.
    pub left_window: WindowSpec,
    /// Window of the right input.
    pub right_window: WindowSpec,
    /// Number of columns of the left input (the predicate's column split).
    pub left_width: usize,
}

/// Flattens nested `And` nodes into their conjunct list, in evaluation
/// order.
fn flatten_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    if let Expr::And(l, r) = expr {
        flatten_conjuncts(l, out);
        flatten_conjuncts(r, out);
    } else {
        out.push(expr.clone());
    }
}

/// Rewrites every `Column(i)` of `expr` to `Column(i - delta)` — used to
/// re-express a combined-schema right-side key over the right input schema.
fn shift_columns(expr: &Expr, delta: usize) -> Expr {
    match expr {
        Expr::Column(i) => Expr::Column(i - delta),
        Expr::Literal(v) => Expr::Literal(*v),
        Expr::Arith(op, l, r) => Expr::Arith(
            *op,
            Box::new(shift_columns(l, delta)),
            Box::new(shift_columns(r, delta)),
        ),
        Expr::Compare(op, l, r) => Expr::Compare(
            *op,
            Box::new(shift_columns(l, delta)),
            Box::new(shift_columns(r, delta)),
        ),
        Expr::And(l, r) => Expr::And(
            Box::new(shift_columns(l, delta)),
            Box::new(shift_columns(r, delta)),
        ),
        Expr::Or(l, r) => Expr::Or(
            Box::new(shift_columns(l, delta)),
            Box::new(shift_columns(r, delta)),
        ),
        Expr::Not(e) => Expr::Not(Box::new(shift_columns(e, delta))),
    }
}

/// Searches the predicate's conjuncts for the first `a == b` whose sides
/// each reference columns of exactly one input, and splits it off as the
/// probe key pair. Everything else becomes the residual.
fn split_equi(predicate: &Expr, left_width: usize) -> Option<EquiJoinKeys> {
    let mut conjuncts = Vec::new();
    flatten_conjuncts(predicate, &mut conjuncts);

    let side = |e: &Expr| -> Option<bool> {
        // Some(true) = purely left, Some(false) = purely right.
        let cols = e.referenced_columns();
        if cols.is_empty() {
            return None;
        }
        if cols.iter().all(|&c| c < left_width) {
            Some(true)
        } else if cols.iter().all(|&c| c >= left_width) {
            Some(false)
        } else {
            None
        }
    };

    let mut keys: Option<(Expr, Expr)> = None;
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if keys.is_none() {
            if let Expr::Compare(CompareOp::Eq, a, b) = &c {
                match (side(a), side(b)) {
                    (Some(true), Some(false)) => {
                        keys = Some(((**a).clone(), (**b).clone()));
                        continue;
                    }
                    (Some(false), Some(true)) => {
                        keys = Some(((**b).clone(), (**a).clone()));
                        continue;
                    }
                    _ => {}
                }
            }
        }
        residual.push(c);
    }

    let (left_key, right_combined) = keys?;
    Some(EquiJoinKeys {
        left_key,
        right_key: shift_columns(&right_combined, left_width),
        residual: if residual.is_empty() {
            None
        } else {
            Some(conjunction(residual))
        },
    })
}

/// A flattened partition-join pipeline (the UDF example; LRB2).
#[derive(Debug, Clone)]
pub struct PartitionJoinPlan {
    /// The partition join specification.
    pub spec: PartitionJoinSpec,
    /// Window of the left (windowed) input.
    pub left_window: WindowSpec,
    /// Number of columns of the left input.
    pub left_width: usize,
}

/// The physical form of a query's operator function.
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// Projection/selection chains.
    Stateless(StatelessPlan),
    /// Pipelines ending in an aggregation.
    Aggregation(AggregationPlan),
    /// θ-join pipelines.
    ThetaJoin(ThetaJoinPlan),
    /// Partition-join pipelines.
    PartitionJoin(PartitionJoinPlan),
}

/// A compiled query: plan kind plus the metadata the engine needs at runtime.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    query_id: QueryId,
    name: String,
    kind: PlanKind,
    input_schemas: Vec<SchemaRef>,
    windows: Vec<WindowSpec>,
    output_schema: SchemaRef,
    stream_function: StreamFunction,
    kernel: KernelKind,
}

impl CompiledPlan {
    /// Compiles a logical query into its physical plan.
    pub fn compile(query: &Query) -> Result<Self> {
        let input_schemas: Vec<SchemaRef> = query.inputs.iter().map(|i| i.schema.clone()).collect();
        let windows: Vec<WindowSpec> = query.inputs.iter().map(|i| i.window).collect();

        let kind = if query.is_join() {
            Self::compile_join(query)?
        } else {
            Self::compile_unary(query)?
        };

        Ok(Self {
            query_id: query.id,
            name: query.name.clone(),
            kind,
            input_schemas,
            windows,
            output_schema: query.output_schema.clone(),
            stream_function: query.stream_function,
            kernel: KernelKind::best(),
        })
    }

    fn compile_unary(query: &Query) -> Result<PlanKind> {
        let input_width = query.inputs[0].schema.len();
        // Identity mapping over the input schema.
        let mut cols: Vec<Expr> = (0..input_width).map(Expr::Column).collect();
        let mut filters: Vec<Expr> = Vec::new();
        let mut aggregation: Option<(AggregationSpec, Vec<Expr>)> = None;

        for op in &query.operators {
            match op {
                OperatorDef::Projection(p) => {
                    cols = p
                        .exprs
                        .iter()
                        .map(|pe| substitute(&pe.expr, &cols))
                        .collect();
                }
                OperatorDef::Selection(s) => {
                    filters.push(substitute(&s.predicate, &cols));
                }
                OperatorDef::Aggregation(a) => {
                    aggregation = Some((a.clone(), cols.clone()));
                }
                other => {
                    return Err(SaberError::Query(format!(
                        "{} operator is not valid in a single-input pipeline",
                        other.name()
                    )))
                }
            }
        }

        let filter = if filters.is_empty() {
            None
        } else {
            Some(conjunction(filters))
        };

        if let Some((agg, cols_at_agg)) = aggregation {
            let group_exprs = agg
                .group_by
                .iter()
                .map(|&c| cols_at_agg.get(c).cloned().unwrap_or(Expr::Column(c)))
                .collect();
            let aggregates = agg
                .aggregates
                .iter()
                .map(|spec| {
                    let input = spec
                        .column
                        .map(|c| cols_at_agg.get(c).cloned().unwrap_or(Expr::Column(c)));
                    (spec.function, input)
                })
                .collect();
            let window = query.inputs[0].window;
            Ok(PlanKind::Aggregation(AggregationPlan {
                filter,
                group_exprs,
                aggregates,
                having: agg.having.clone(),
                window,
                pane_length: window.panes().pane_length,
            }))
        } else {
            // Projection is the identity if the pipeline never changed the
            // column mapping.
            let identity = cols.len() == input_width
                && cols
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, Expr::Column(c) if *c == i));
            let projection = if identity {
                None
            } else {
                let out = &query.output_schema;
                Some(
                    cols.into_iter()
                        .enumerate()
                        .map(|(i, e)| (e, out.data_type(i)))
                        .collect(),
                )
            };
            Ok(PlanKind::Stateless(StatelessPlan { filter, projection }))
        }
    }

    fn compile_join(query: &Query) -> Result<PlanKind> {
        let left_width = query.inputs[0].schema.len();
        let right_width = query.inputs[1].schema.len();
        let combined = left_width + right_width;
        let left_window = query.inputs[0].window;
        let right_window = query.inputs[1].window;

        let mut ops = query.operators.iter();
        let first = ops
            .next()
            .ok_or_else(|| SaberError::Query("empty pipeline".into()))?;

        match first {
            OperatorDef::ThetaJoin(j) => {
                let mut cols: Vec<Expr> = (0..combined).map(Expr::Column).collect();
                let mut filters: Vec<Expr> = Vec::new();
                for op in ops {
                    match op {
                        OperatorDef::Projection(p) => {
                            cols = p
                                .exprs
                                .iter()
                                .map(|pe| substitute(&pe.expr, &cols))
                                .collect();
                        }
                        OperatorDef::Selection(s) => {
                            filters.push(substitute(&s.predicate, &cols));
                        }
                        other => {
                            return Err(SaberError::Query(format!(
                                "{} operator is not supported after a join",
                                other.name()
                            )))
                        }
                    }
                }
                let identity = cols.len() == combined
                    && cols
                        .iter()
                        .enumerate()
                        .all(|(i, e)| matches!(e, Expr::Column(c) if *c == i));
                let post_projection = if identity {
                    None
                } else {
                    let out = &query.output_schema;
                    Some(
                        cols.into_iter()
                            .enumerate()
                            .map(|(i, e)| (e, out.data_type(i)))
                            .collect(),
                    )
                };
                let post_filter = if filters.is_empty() {
                    None
                } else {
                    Some(conjunction(filters))
                };
                Ok(PlanKind::ThetaJoin(ThetaJoinPlan {
                    predicate: j.predicate.clone(),
                    equi: split_equi(&j.predicate, left_width),
                    post_filter,
                    post_projection,
                    left_window,
                    right_window,
                    left_width,
                }))
            }
            OperatorDef::PartitionJoin(pj) => Ok(PlanKind::PartitionJoin(PartitionJoinPlan {
                spec: pj.clone(),
                left_window,
                left_width,
            })),
            other => Err(SaberError::Query(format!(
                "two-input query must start with a join, found {}",
                other.name()
            ))),
        }
    }

    /// Engine identifier of the compiled query.
    pub fn query_id(&self) -> QueryId {
        self.query_id
    }

    /// Updates the engine identifier (set when the query is registered).
    pub fn set_query_id(&mut self, id: QueryId) {
        self.query_id = id;
    }

    /// Query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The physical plan kind.
    pub fn kind(&self) -> &PlanKind {
        &self.kind
    }

    /// Input schemas, one per input stream.
    pub fn input_schemas(&self) -> &[SchemaRef] {
        &self.input_schemas
    }

    /// Window definitions, one per input stream.
    pub fn windows(&self) -> &[WindowSpec] {
        &self.windows
    }

    /// Output schema of the query.
    pub fn output_schema(&self) -> &SchemaRef {
        &self.output_schema
    }

    /// Relation-to-stream function.
    pub fn stream_function(&self) -> StreamFunction {
        self.stream_function
    }

    /// Number of input streams.
    pub fn num_inputs(&self) -> usize {
        self.input_schemas.len()
    }

    /// The kernel this plan's batch operator function runs with.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Overrides the kernel (benchmarks and differential tests pin specific
    /// variants).
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::{AggregateFunction, QueryBuilder};
    use saber_types::{DataType, Schema};

    fn schema() -> SchemaRef {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
            ("aux", DataType::Int),
        ])
        .unwrap()
        .into_ref()
    }

    #[test]
    fn substitute_rewrites_column_references() {
        let cols = vec![Expr::Column(3), Expr::Column(1).add(Expr::literal(1.0))];
        let e = Expr::Column(0).gt(Expr::Column(1));
        let rewritten = substitute(&e, &cols);
        match rewritten {
            Expr::Compare(_, l, r) => {
                assert_eq!(*l, Expr::Column(3));
                assert!(matches!(*r, Expr::Arith(..)));
            }
            _ => panic!("expected comparison"),
        }
    }

    #[test]
    fn pure_selection_compiles_to_stateless_identity() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(8, 8)
            .select(Expr::column(1).gt(Expr::literal(0.0)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        match plan.kind() {
            PlanKind::Stateless(s) => {
                assert!(s.filter.is_some());
                assert!(s.projection.is_none(), "identity projection expected");
            }
            _ => panic!("expected stateless plan"),
        }
        assert_eq!(plan.num_inputs(), 1);
    }

    #[test]
    fn projection_then_selection_flattens_over_input_schema() {
        // Project (ts, value*2 as v2), then select v2 > 1.0. The compiled
        // filter must reference the *input* columns.
        let q = QueryBuilder::new("ps", schema())
            .count_window(8, 8)
            .project(vec![
                (Expr::column(0), "timestamp"),
                (Expr::column(1).mul(Expr::literal(2.0)), "v2"),
            ])
            .select(Expr::column(1).gt(Expr::literal(1.0)))
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        match plan.kind() {
            PlanKind::Stateless(s) => {
                let filter = s.filter.as_ref().unwrap();
                // The filter references input column 1 (value), not output column 1.
                assert_eq!(filter.referenced_columns(), vec![1]);
                let proj = s.projection.as_ref().unwrap();
                assert_eq!(proj.len(), 2);
                assert_eq!(proj[0].1, DataType::Timestamp);
            }
            _ => panic!("expected stateless plan"),
        }
    }

    #[test]
    fn aggregation_after_projection_rewrites_columns() {
        // CM1-like: project (ts, category, cpu) then SUM(cpu) GROUP BY category.
        let q = QueryBuilder::new("cm1", schema())
            .time_window(60, 1)
            .project(vec![
                (Expr::column(0), "timestamp"),
                (Expr::column(2), "category"),
                (Expr::column(1), "cpu"),
            ])
            .aggregate(AggregateFunction::Sum, 2)
            .group_by(vec![1])
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        match plan.kind() {
            PlanKind::Aggregation(a) => {
                // Group expr must resolve to input column 2 (`key`/category).
                assert_eq!(a.group_exprs.len(), 1);
                assert_eq!(a.group_exprs[0], Expr::Column(2));
                // Aggregate input must resolve to input column 1 (`value`/cpu).
                assert_eq!(a.aggregates.len(), 1);
                assert_eq!(a.aggregates[0].1.as_ref().unwrap(), &Expr::Column(1));
                assert_eq!(a.window, WindowSpec::time(60, 1));
                assert_eq!(a.pane_length, 1);
                assert!(a.all_additive());
            }
            _ => panic!("expected aggregation plan"),
        }
    }

    #[test]
    fn selection_before_aggregation_becomes_filter() {
        let q = QueryBuilder::new("cm2", schema())
            .time_window(60, 1)
            .select(Expr::column(3).eq(Expr::literal(1.0)))
            .aggregate(AggregateFunction::Avg, 1)
            .group_by(vec![2])
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        match plan.kind() {
            PlanKind::Aggregation(a) => {
                assert!(a.filter.is_some());
                assert_eq!(a.functions(), vec![AggregateFunction::Avg]);
            }
            _ => panic!("expected aggregation plan"),
        }
    }

    #[test]
    fn theta_join_plan_keeps_predicate_and_windows() {
        let q = QueryBuilder::new("join", schema())
            .count_window(128, 64)
            .theta_join(
                schema(),
                WindowSpec::count(256, 256),
                Expr::column(2).eq(Expr::column(4 + 2)),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        match plan.kind() {
            PlanKind::ThetaJoin(j) => {
                assert_eq!(j.left_width, 4);
                assert_eq!(j.left_window, WindowSpec::count(128, 64));
                assert_eq!(j.right_window, WindowSpec::count(256, 256));
                assert!(j.post_filter.is_none());
                assert!(j.post_projection.is_none());
            }
            _ => panic!("expected join plan"),
        }
        assert_eq!(plan.num_inputs(), 2);
    }

    #[test]
    fn partition_join_plan_compiles() {
        let q = QueryBuilder::new("lrb2", schema())
            .time_window(30, 1)
            .partition_join(
                schema(),
                WindowSpec::count(1, 1),
                PartitionJoinSpec::new(2, 2),
            )
            .build()
            .unwrap();
        let plan = CompiledPlan::compile(&q).unwrap();
        match plan.kind() {
            PlanKind::PartitionJoin(p) => {
                assert_eq!(p.spec.left_key, 2);
                assert_eq!(p.left_width, 4);
            }
            _ => panic!("expected partition join plan"),
        }
    }

    #[test]
    fn equi_decomposition_extracts_keys_and_residual() {
        // (left.key == right.key) AND (left.value > right.value): the
        // equality becomes the probe key pair, the inequality the residual.
        let predicate = Expr::column(2)
            .eq(Expr::column(4 + 2))
            .and(Expr::column(1).gt(Expr::column(4 + 1)));
        let keys = split_equi(&predicate, 4).expect("equi decomposition");
        assert_eq!(keys.left_key, Expr::Column(2));
        assert_eq!(keys.right_key, Expr::Column(2), "shifted to right schema");
        let residual = keys.residual.expect("residual conjunct");
        assert_eq!(residual, Expr::column(1).gt(Expr::column(5)));

        // Reversed sides normalize: right.key == left.key.
        let flipped = Expr::column(4 + 2).eq(Expr::column(2));
        let keys = split_equi(&flipped, 4).unwrap();
        assert_eq!(keys.left_key, Expr::Column(2));
        assert!(keys.residual.is_none());

        // A pure cross-side inequality has no equi key.
        assert!(split_equi(&Expr::column(1).lt(Expr::column(5)), 4).is_none());
        // An equality referencing both inputs on one side does not qualify.
        let mixed = Expr::column(0).add(Expr::column(5)).eq(Expr::column(1));
        assert!(split_equi(&mixed, 4).is_none());
    }

    #[test]
    fn every_plan_shape_gets_the_platform_kernel_and_pins_stick() {
        let window = WindowSpec::count(128, 64);
        let unary = || QueryBuilder::new("q", schema()).window(window);
        let join = |predicate: Expr| {
            unary()
                .theta_join(schema(), WindowSpec::count(256, 256), predicate)
                .build()
                .unwrap()
        };
        let shapes = [
            unary()
                .select(Expr::column(1).gt(Expr::literal(0.0)))
                .build()
                .unwrap(),
            unary()
                .aggregate(AggregateFunction::Sum, 1)
                .build()
                .unwrap(),
            unary()
                .aggregate(AggregateFunction::Sum, 1)
                .group_by(vec![2])
                .build()
                .unwrap(),
            unary()
                .aggregate(AggregateFunction::CountDistinct, 2)
                .build()
                .unwrap(),
            join(Expr::column(2).eq(Expr::column(4 + 2))),
            join(Expr::column(1).lt(Expr::column(4 + 1))),
            unary()
                .partition_join(
                    schema(),
                    WindowSpec::count(1, 1),
                    PartitionJoinSpec::new(2, 2),
                )
                .build()
                .unwrap(),
        ];
        for query in &shapes {
            let plan = CompiledPlan::compile(query).unwrap();
            assert_eq!(plan.kernel(), KernelKind::best(), "{:?}", plan.kind());
            for pin in [KernelKind::Scalar, KernelKind::Simd] {
                assert_eq!(plan.clone().with_kernel(pin).kernel(), pin);
            }
        }
    }

    #[test]
    fn plan_metadata_round_trips() {
        let q = QueryBuilder::new("meta", schema())
            .count_window(16, 16)
            .select(Expr::literal(1.0))
            .build()
            .unwrap()
            .with_id(5);
        let mut plan = CompiledPlan::compile(&q).unwrap();
        assert_eq!(plan.query_id(), 5);
        assert_eq!(plan.name(), "meta");
        assert_eq!(plan.windows()[0], WindowSpec::count(16, 16));
        assert_eq!(plan.output_schema().len(), 4);
        plan.set_query_id(9);
        assert_eq!(plan.query_id(), 9);
    }
}
