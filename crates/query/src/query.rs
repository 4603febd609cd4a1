//! Query definitions and the fluent [`QueryBuilder`].
//!
//! A [`Query`] bundles the three components of the paper's query model
//! (§2.4): per-input window functions, the operator function (a pipeline of
//! [`OperatorDef`]s) and the relation-to-stream function. The builder infers
//! the output schema and validates the pipeline so the engine can assume
//! well-formed queries.

use crate::aggregate::AggregateSpec;
use crate::expr::Expr;
use crate::operator::{
    AggregationSpec, JoinSpec, OperatorDef, PartitionJoinSpec, ProjectionSpec, SelectionSpec,
};
use crate::window::WindowSpec;
use saber_types::schema::SchemaRef;
use saber_types::{Result, SaberError, Schema};

/// Identifier of a query inside an engine instance.
pub type QueryId = usize;

/// Relation-to-stream functions (paper §2.4).
///
/// `RStream` concatenates window results (the default for aggregation and
/// joins); `IStream` emits only the tuples that were not part of the previous
/// window result (the default for projection and selection, where it
/// coincides with emitting each input tuple's result exactly once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFunction {
    /// Emit every window result in full.
    RStream,
    /// Emit only the delta with respect to the previous window result.
    IStream,
}

/// One windowed input stream of a query.
#[derive(Debug, Clone)]
pub struct StreamInput {
    /// Schema of the input stream.
    pub schema: SchemaRef,
    /// Window function applied to the input stream.
    pub window: WindowSpec,
    /// Name of the source stream this input reads from, when the query was
    /// compiled against a catalog (the SQL planner records the resolved
    /// `FROM`/`JOIN` stream name here, *not* the alias). Two queries can only
    /// share a physical plan when their inputs name the same sources; inputs
    /// without a source (`None`, the IR-builder default) never share.
    pub source: Option<String>,
}

/// A window-based streaming query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Engine-assigned identifier (0 until registered).
    pub id: QueryId,
    /// Human-readable name (used in reports and metrics).
    pub name: String,
    /// The query's input streams with their window functions.
    pub inputs: Vec<StreamInput>,
    /// The operator pipeline implementing `f^q`.
    pub operators: Vec<OperatorDef>,
    /// The relation-to-stream function `φ^q`.
    pub stream_function: StreamFunction,
    /// Inferred output schema.
    pub output_schema: SchemaRef,
}

impl Query {
    /// Number of input streams.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The window function of input `i`.
    pub fn window(&self, i: usize) -> &WindowSpec {
        &self.inputs[i].window
    }

    /// The schema of input `i`.
    pub fn input_schema(&self, i: usize) -> &SchemaRef {
        &self.inputs[i].schema
    }

    /// True if the pipeline ends in an aggregation.
    pub fn has_aggregation(&self) -> bool {
        matches!(self.operators.last(), Some(OperatorDef::Aggregation(_)))
    }

    /// True if the query joins two input streams.
    pub fn is_join(&self) -> bool {
        self.operators.iter().any(|o| o.is_binary())
    }

    /// Returns the aggregation spec if the query ends in one.
    pub fn aggregation(&self) -> Option<&AggregationSpec> {
        match self.operators.last() {
            Some(OperatorDef::Aggregation(a)) => Some(a),
            _ => None,
        }
    }

    /// Assigns the engine identifier (called by the engine on registration).
    pub fn with_id(mut self, id: QueryId) -> Self {
        self.id = id;
        self
    }
}

/// Fluent builder for [`Query`] values.
///
/// ```
/// use saber_query::{QueryBuilder, Expr, AggregateFunction};
/// use saber_types::{Schema, DataType};
///
/// let schema = Schema::from_pairs(&[
///     ("timestamp", DataType::Timestamp),
///     ("cpu", DataType::Float),
///     ("category", DataType::Int),
/// ]).unwrap().into_ref();
///
/// // CM1: sum of requested CPU per category over a 60s window sliding by 1s.
/// let query = QueryBuilder::new("cm1", schema)
///     .time_window(60_000, 1_000)
///     .aggregate(AggregateFunction::Sum, 1)
///     .group_by(vec![2])
///     .build()
///     .unwrap();
/// assert!(query.has_aggregation());
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    name: String,
    inputs: Vec<StreamInput>,
    operators: Vec<OperatorDef>,
    aggregates: Vec<AggregateSpec>,
    group_by: Vec<usize>,
    having: Option<Expr>,
    stream_function: Option<StreamFunction>,
}

impl QueryBuilder {
    /// Starts a query over a single input stream (a default unbounded window
    /// is used unless a window is set explicitly).
    pub fn new(name: impl Into<String>, schema: SchemaRef) -> Self {
        Self {
            name: name.into(),
            inputs: vec![StreamInput {
                schema,
                window: WindowSpec::unbounded(),
                source: None,
            }],
            operators: Vec::new(),
            aggregates: Vec::new(),
            group_by: Vec::new(),
            having: None,
            stream_function: None,
        }
    }

    /// Sets a count-based window on the most recently added input.
    pub fn count_window(mut self, size: u64, slide: u64) -> Self {
        if let Some(last) = self.inputs.last_mut() {
            last.window = WindowSpec::count(size, slide);
        }
        self
    }

    /// Sets a time-based window on the most recently added input.
    pub fn time_window(mut self, size: u64, slide: u64) -> Self {
        if let Some(last) = self.inputs.last_mut() {
            last.window = WindowSpec::time(size, slide);
        }
        self
    }

    /// Sets an explicit window specification on the most recently added input.
    pub fn window(mut self, spec: WindowSpec) -> Self {
        if let Some(last) = self.inputs.last_mut() {
            last.window = spec;
        }
        self
    }

    /// Records the source stream name of the most recently added input (see
    /// [`StreamInput::source`]). Queries whose inputs all name their sources
    /// are eligible for physical plan sharing in the engine.
    pub fn source(mut self, name: impl Into<String>) -> Self {
        if let Some(last) = self.inputs.last_mut() {
            last.source = Some(name.into());
        }
        self
    }

    /// Adds a projection of raw columns.
    pub fn project_columns(mut self, indices: &[usize]) -> Self {
        let schema = self.current_schema();
        match ProjectionSpec::columns(&schema, indices) {
            Ok(p) => self.operators.push(OperatorDef::Projection(p)),
            Err(_) => self.operators.push(OperatorDef::Projection(ProjectionSpec {
                exprs: Vec::new(),
            })),
        }
        self
    }

    /// Adds a projection of named expressions.
    pub fn project(mut self, pairs: Vec<(Expr, &str)>) -> Self {
        let schema = self.current_schema();
        let pairs = pairs
            .into_iter()
            .map(|(e, n)| (e, n.to_string()))
            .collect::<Vec<_>>();
        match ProjectionSpec::exprs(&schema, pairs) {
            Ok(p) => self.operators.push(OperatorDef::Projection(p)),
            Err(_) => self.operators.push(OperatorDef::Projection(ProjectionSpec {
                exprs: Vec::new(),
            })),
        }
        self
    }

    /// Adds a selection with the given predicate.
    pub fn select(mut self, predicate: Expr) -> Self {
        self.operators
            .push(OperatorDef::Selection(SelectionSpec::new(predicate)));
        self
    }

    /// Adds an aggregate over a column (terminal operator).
    pub fn aggregate(
        mut self,
        function: crate::aggregate::AggregateFunction,
        column: usize,
    ) -> Self {
        self.aggregates.push(AggregateSpec::new(function, column));
        self
    }

    /// Adds a `COUNT(*)` aggregate (terminal operator).
    pub fn aggregate_count(mut self) -> Self {
        self.aggregates.push(AggregateSpec::count());
        self
    }

    /// Adds a pre-built aggregate spec.
    pub fn aggregate_spec(mut self, spec: AggregateSpec) -> Self {
        self.aggregates.push(spec);
        self
    }

    /// Sets the GROUP-BY columns for the aggregation.
    pub fn group_by(mut self, columns: Vec<usize>) -> Self {
        self.group_by = columns;
        self
    }

    /// Sets the HAVING predicate (over the aggregation output schema).
    pub fn having(mut self, predicate: Expr) -> Self {
        self.having = Some(predicate);
        self
    }

    /// Adds a second input stream and a streaming θ-join with it. The join
    /// predicate addresses left columns first, then right columns.
    pub fn theta_join(
        mut self,
        right_schema: SchemaRef,
        right_window: WindowSpec,
        predicate: Expr,
    ) -> Self {
        self.inputs.push(StreamInput {
            schema: right_schema,
            window: right_window,
            source: None,
        });
        self.operators
            .push(OperatorDef::ThetaJoin(JoinSpec::new(predicate)));
        self
    }

    /// Adds a second input stream and a partition join with it (the UDF
    /// example of the paper; used by LRB2).
    pub fn partition_join(
        mut self,
        right_schema: SchemaRef,
        right_window: WindowSpec,
        spec: PartitionJoinSpec,
    ) -> Self {
        self.inputs.push(StreamInput {
            schema: right_schema,
            window: right_window,
            source: None,
        });
        self.operators.push(OperatorDef::PartitionJoin(spec));
        self
    }

    /// Overrides the relation-to-stream function.
    pub fn stream_function(mut self, f: StreamFunction) -> Self {
        self.stream_function = Some(f);
        self
    }

    /// The schema produced by the operators added so far (used to validate
    /// follow-on operators); falls back to the first input schema.
    fn current_schema(&self) -> Schema {
        let mut schema: Schema = (*self.inputs[0].schema).clone();
        for op in &self.operators {
            match op {
                OperatorDef::Projection(p) => {
                    if let Ok(s) = p.output_schema() {
                        schema = s;
                    }
                }
                OperatorDef::Selection(_) => {}
                OperatorDef::Aggregation(a) => {
                    if let Ok(s) = a.output_schema(&schema) {
                        schema = s;
                    }
                }
                OperatorDef::ThetaJoin(_) => {
                    if self.inputs.len() >= 2 {
                        if let Ok(s) = JoinSpec::output_schema(&schema, &self.inputs[1].schema) {
                            schema = s;
                        }
                    }
                }
                OperatorDef::PartitionJoin(_) => {}
            }
        }
        schema
    }

    /// Finalises the query: assembles the aggregation (if any), validates the
    /// whole pipeline and infers the output schema.
    pub fn build(mut self) -> Result<Query> {
        // Assemble the terminal aggregation from the accumulated pieces.
        if !self.aggregates.is_empty() {
            let mut agg = AggregationSpec::new(std::mem::take(&mut self.aggregates))
                .with_group_by(std::mem::take(&mut self.group_by));
            if let Some(h) = self.having.take() {
                agg = agg.with_having(h);
            }
            self.operators.push(OperatorDef::Aggregation(agg));
        } else if !self.group_by.is_empty() || self.having.is_some() {
            return Err(SaberError::Query(
                "GROUP BY / HAVING require at least one aggregate".into(),
            ));
        }

        if self.operators.is_empty() {
            return Err(SaberError::Query("query has no operators".into()));
        }

        // Validate windows.
        for input in &self.inputs {
            input.window.validate()?;
        }

        // Structural validation: binary operators must come first and only
        // once; aggregation must be terminal.
        let mut seen_binary = false;
        let mut seen_aggregation = false;
        for (i, op) in self.operators.iter().enumerate() {
            if op.is_binary() {
                if i != 0 {
                    return Err(SaberError::Query(
                        "join operators must be the first operator of the pipeline".into(),
                    ));
                }
                if seen_binary {
                    return Err(SaberError::Query(
                        "only one join operator is supported".into(),
                    ));
                }
                seen_binary = true;
            }
            if matches!(op, OperatorDef::Aggregation(_)) {
                if i + 1 != self.operators.len() {
                    return Err(SaberError::Query(
                        "aggregation must be the final operator of the pipeline".into(),
                    ));
                }
                seen_aggregation = true;
            }
        }
        if seen_binary && self.inputs.len() != 2 {
            return Err(SaberError::Query(
                "join queries need exactly two inputs".into(),
            ));
        }
        if !seen_binary && self.inputs.len() != 1 {
            return Err(SaberError::Query(
                "queries without a join must have exactly one input".into(),
            ));
        }

        // Walk the pipeline, validating each operator against the schema it
        // will actually see, and infer the output schema.
        let mut schema: Schema = (*self.inputs[0].schema).clone();
        for op in &self.operators {
            match op {
                OperatorDef::Projection(p) => {
                    if p.exprs.is_empty() {
                        return Err(SaberError::Query("projection has no expressions".into()));
                    }
                    for e in &p.exprs {
                        e.expr.validate(&schema)?;
                    }
                    schema = p.output_schema()?;
                }
                OperatorDef::Selection(s) => {
                    s.predicate.validate(&schema)?;
                }
                OperatorDef::Aggregation(a) => {
                    a.validate(&schema)?;
                    schema = a.output_schema(&schema)?;
                }
                OperatorDef::ThetaJoin(j) => {
                    let right = &self.inputs[1].schema;
                    j.validate(&schema, right)?;
                    schema = JoinSpec::output_schema(&schema, right)?;
                }
                OperatorDef::PartitionJoin(pj) => {
                    let right = &self.inputs[1].schema;
                    pj.validate(&schema, right)?;
                    schema = PartitionJoinSpec::output_schema(&schema);
                }
            }
        }

        // Default stream function: RStream for aggregation/joins, IStream for
        // stateless pipelines (paper §2.4 "default combinations").
        let stream_function = self.stream_function.unwrap_or({
            if seen_aggregation || seen_binary {
                StreamFunction::RStream
            } else {
                StreamFunction::IStream
            }
        });

        Ok(Query {
            id: 0,
            name: self.name,
            inputs: self.inputs,
            operators: self.operators,
            stream_function,
            output_schema: schema.into_ref(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateFunction;
    use saber_types::DataType;

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
    fn selection_query_defaults_to_istream() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(1024, 1024)
            .select(Expr::column(1).gt(Expr::literal(0.5)))
            .build()
            .unwrap();
        assert_eq!(q.stream_function, StreamFunction::IStream);
        assert_eq!(q.num_inputs(), 1);
        assert!(!q.has_aggregation());
        assert_eq!(q.output_schema.len(), 4);
    }

    #[test]
    fn aggregation_query_defaults_to_rstream() {
        let q = QueryBuilder::new("agg", schema())
            .count_window(64, 16)
            .aggregate(AggregateFunction::Avg, 1)
            .group_by(vec![2])
            .build()
            .unwrap();
        assert_eq!(q.stream_function, StreamFunction::RStream);
        assert!(q.has_aggregation());
        // timestamp + key + avg_1
        assert_eq!(q.output_schema.len(), 3);
        assert!(q.aggregation().is_some());
    }

    #[test]
    fn projection_then_aggregation_composes_schemas() {
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
        let out = &q.output_schema;
        assert_eq!(out.attribute(0).name(), "timestamp");
        assert_eq!(out.attribute(1).name(), "category");
        assert_eq!(out.attribute(2).name(), "sum_2");
    }

    #[test]
    fn having_over_output_schema() {
        let q = QueryBuilder::new("lrb3", schema())
            .time_window(300, 1)
            .aggregate(AggregateFunction::Avg, 1)
            .group_by(vec![2, 3])
            .having(Expr::column(3).lt(Expr::literal(40.0)))
            .build()
            .unwrap();
        assert!(q.has_aggregation());
        assert_eq!(q.output_schema.len(), 4);
    }

    #[test]
    fn group_by_without_aggregate_is_rejected() {
        let err = QueryBuilder::new("bad", schema())
            .count_window(4, 4)
            .group_by(vec![2])
            .build()
            .unwrap_err();
        assert_eq!(err.category(), "query");
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        assert!(QueryBuilder::new("empty", schema())
            .count_window(4, 4)
            .build()
            .is_err());
    }

    #[test]
    fn invalid_window_is_rejected() {
        assert!(QueryBuilder::new("w", schema())
            .count_window(4, 8)
            .select(Expr::literal(1.0))
            .build()
            .is_err());
    }

    #[test]
    fn join_query_has_two_inputs_and_combined_schema() {
        let q = QueryBuilder::new("join", schema())
            .count_window(128, 128)
            .theta_join(
                schema(),
                WindowSpec::count(128, 128),
                Expr::column(2).eq(Expr::column(4 + 2)),
            )
            .build()
            .unwrap();
        assert!(q.is_join());
        assert_eq!(q.num_inputs(), 2);
        assert_eq!(q.output_schema.len(), 8);
        assert_eq!(q.stream_function, StreamFunction::RStream);
    }

    #[test]
    fn join_must_be_first_operator() {
        let err = QueryBuilder::new("bad-join", schema())
            .count_window(16, 16)
            .select(Expr::literal(1.0))
            .theta_join(schema(), WindowSpec::count(16, 16), Expr::literal(1.0))
            .build()
            .unwrap_err();
        assert_eq!(err.category(), "query");
    }

    #[test]
    fn aggregation_must_be_last() {
        // The builder appends aggregates at the end, so construct the bad
        // pipeline manually through select-after-aggregate ordering.
        let schema = schema();
        let mut builder = QueryBuilder::new("bad", schema);
        builder = builder.count_window(16, 16).aggregate_count();
        // Manually force an operator after aggregation.
        let mut q = builder.build().unwrap();
        q.operators
            .push(OperatorDef::Selection(SelectionSpec::new(Expr::literal(
                1.0,
            ))));
        // Rebuilding through the builder API cannot produce this, but the
        // structural check exists for engine-level construction paths.
        assert!(matches!(
            q.operators.last(),
            Some(OperatorDef::Selection(_))
        ));
    }

    #[test]
    fn partition_join_query_builds() {
        let q = QueryBuilder::new("lrb2", schema())
            .time_window(30, 1)
            .partition_join(
                schema(),
                WindowSpec::count(1, 1),
                PartitionJoinSpec::new(2, 2),
            )
            .build()
            .unwrap();
        assert!(q.is_join());
        assert_eq!(q.output_schema.len(), 4);
    }

    #[test]
    fn projection_with_unknown_column_fails_at_build() {
        let err = QueryBuilder::new("bad-proj", schema())
            .count_window(16, 16)
            .project(vec![(Expr::column(11), "x")])
            .build()
            .unwrap_err();
        assert_eq!(err.category(), "query");
    }

    #[test]
    fn with_id_assigns_identifier() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .build()
            .unwrap()
            .with_id(7);
        assert_eq!(q.id, 7);
    }

    #[test]
    fn stream_function_can_be_overridden() {
        let q = QueryBuilder::new("sel", schema())
            .count_window(4, 4)
            .select(Expr::literal(1.0))
            .stream_function(StreamFunction::RStream)
            .build()
            .unwrap();
        assert_eq!(q.stream_function, StreamFunction::RStream);
    }
}
