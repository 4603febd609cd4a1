//! Logical operator definitions.
//!
//! A query's operator function `f^q` is described as a pipeline of
//! [`OperatorDef`]s. These are *logical* descriptions only — the physical
//! fragment / batch / assembly operator functions that implement them on the
//! CPU live in `saber-cpu`, and the data-parallel kernels for the simulated
//! accelerator in `saber-gpu`.

use crate::aggregate::AggregateSpec;
use crate::expr::Expr;
use saber_types::{Attribute, DataType, Result, SaberError, Schema};

/// A single projected expression with its output attribute name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedExpr {
    /// The expression to evaluate per tuple.
    pub expr: Expr,
    /// Output attribute name.
    pub name: String,
    /// Output attribute type.
    pub data_type: DataType,
}

/// Projection operator π: maps each input tuple to a tuple of expression
/// results (attribute removal, renaming and arithmetic such as LRB1's
/// `position / 5280 as segment`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionSpec {
    /// The projected expressions, in output order.
    pub exprs: Vec<ProjectedExpr>,
}

impl ProjectionSpec {
    /// Projects the given input columns unchanged.
    pub fn columns(schema: &Schema, indices: &[usize]) -> Result<Self> {
        let mut exprs = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= schema.len() {
                return Err(SaberError::Query(format!(
                    "projection references column {i} but the schema has {} attributes",
                    schema.len()
                )));
            }
            exprs.push(ProjectedExpr {
                expr: Expr::Column(i),
                name: schema.attribute(i).name().to_string(),
                data_type: schema.data_type(i),
            });
        }
        Ok(Self { exprs })
    }

    /// Builds a projection from `(expr, name)` pairs, inferring output types.
    pub fn exprs(schema: &Schema, pairs: Vec<(Expr, String)>) -> Result<Self> {
        let mut exprs = Vec::with_capacity(pairs.len());
        for (expr, name) in pairs {
            expr.validate(schema)?;
            let data_type = expr.output_type(schema);
            exprs.push(ProjectedExpr {
                expr,
                name,
                data_type,
            });
        }
        Ok(Self { exprs })
    }

    /// Output schema of the projection.
    pub fn output_schema(&self) -> Result<Schema> {
        Schema::new(
            self.exprs
                .iter()
                .map(|p| Attribute::new(p.name.clone(), p.data_type))
                .collect(),
        )
    }
}

/// Selection operator σ: keeps tuples for which the predicate holds.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionSpec {
    /// The selection predicate.
    pub predicate: Expr,
}

impl SelectionSpec {
    /// Creates a selection with the given predicate.
    pub fn new(predicate: Expr) -> Self {
        Self { predicate }
    }
}

/// Aggregation operator α with optional GROUP-BY and HAVING clauses.
///
/// The output schema is `timestamp, <group-by columns>, <one attribute per
/// aggregate>`; the HAVING predicate is evaluated over that output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationSpec {
    /// Aggregates to compute per window (and group).
    pub aggregates: Vec<AggregateSpec>,
    /// GROUP-BY column indices (empty for a global aggregate).
    pub group_by: Vec<usize>,
    /// Optional HAVING predicate over the aggregation output schema.
    pub having: Option<Expr>,
}

impl AggregationSpec {
    /// Creates an aggregation without grouping.
    pub fn new(aggregates: Vec<AggregateSpec>) -> Self {
        Self {
            aggregates,
            group_by: Vec::new(),
            having: None,
        }
    }

    /// Adds GROUP-BY columns.
    pub fn with_group_by(mut self, columns: Vec<usize>) -> Self {
        self.group_by = columns;
        self
    }

    /// Adds a HAVING predicate (over the output schema).
    pub fn with_having(mut self, predicate: Expr) -> Self {
        self.having = Some(predicate);
        self
    }

    /// Validates against the input schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.aggregates.is_empty() {
            return Err(SaberError::Query(
                "aggregation needs at least one aggregate".into(),
            ));
        }
        for a in &self.aggregates {
            a.validate(schema)?;
        }
        for &c in &self.group_by {
            if c >= schema.len() {
                return Err(SaberError::Query(format!(
                    "GROUP BY references column {c} but the schema has {} attributes",
                    schema.len()
                )));
            }
        }
        let out = self.output_schema(schema)?;
        if let Some(h) = &self.having {
            h.validate(&out)?;
        }
        Ok(())
    }

    /// Output schema: `timestamp, <group columns>, <aggregates>`.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        let mut attrs = vec![Attribute::new("timestamp", DataType::Timestamp)];
        for &c in &self.group_by {
            if c >= input.len() {
                return Err(SaberError::Query(format!(
                    "GROUP BY references column {c} but the schema has {} attributes",
                    input.len()
                )));
            }
            attrs.push(Attribute::new(
                input.attribute(c).name().to_string(),
                input.data_type(c),
            ));
        }
        for a in &self.aggregates {
            attrs.push(Attribute::new(
                a.output_name.clone(),
                a.function.output_type(),
            ));
        }
        Schema::new(attrs)
    }
}

/// Streaming θ-join operator ⋈ between two windowed input streams
/// (Kang et al. \[35\]: every new tuple of one stream is matched against the
/// current window of the other stream).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Join predicate over the combined schema (left columns first, then
    /// right columns).
    pub predicate: Expr,
}

impl JoinSpec {
    /// Creates a θ-join with the given predicate.
    pub fn new(predicate: Expr) -> Self {
        Self { predicate }
    }

    /// Output schema: all left attributes, then all right attributes
    /// (right-hand names prefixed with `r_` on collision).
    pub fn output_schema(left: &Schema, right: &Schema) -> Result<Schema> {
        let mut attrs: Vec<Attribute> = left.attributes().to_vec();
        for a in right.attributes() {
            let name = if left.index_of(a.name()).is_ok() {
                format!("r_{}", a.name())
            } else {
                a.name().to_string()
            };
            attrs.push(Attribute::new(name, a.data_type()));
        }
        Schema::new(attrs)
    }

    /// Validates the predicate against the combined width.
    pub fn validate(&self, left: &Schema, right: &Schema) -> Result<()> {
        self.predicate.validate_width(left.len() + right.len())
    }
}

/// Partition join (the paper's UDF example, used by LRB2): the right stream
/// is partitioned by a key keeping only the most recent row per partition
/// (`[partition by vehicle rows 1]`), and left tuples are emitted when their
/// key matches a partition row and the optional residual predicate holds.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionJoinSpec {
    /// Key column in the left (windowed) stream.
    pub left_key: usize,
    /// Key column in the right (partitioned) stream.
    pub right_key: usize,
    /// Optional residual predicate over the combined schema.
    pub predicate: Option<Expr>,
    /// Emit each distinct left row at most once per window (SELECT DISTINCT).
    pub distinct: bool,
}

impl PartitionJoinSpec {
    /// Creates a partition join on the given key columns.
    pub fn new(left_key: usize, right_key: usize) -> Self {
        Self {
            left_key,
            right_key,
            predicate: None,
            distinct: true,
        }
    }

    /// Validates against both input schemas.
    pub fn validate(&self, left: &Schema, right: &Schema) -> Result<()> {
        if self.left_key >= left.len() {
            return Err(SaberError::Query(format!(
                "partition join left key {} out of range",
                self.left_key
            )));
        }
        if self.right_key >= right.len() {
            return Err(SaberError::Query(format!(
                "partition join right key {} out of range",
                self.right_key
            )));
        }
        if let Some(p) = &self.predicate {
            p.validate_width(left.len() + right.len())?;
        }
        Ok(())
    }

    /// Output schema (the left stream's schema: matching left rows are
    /// forwarded).
    pub fn output_schema(left: &Schema) -> Schema {
        left.clone()
    }
}

/// One logical operator in a query's operator pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorDef {
    /// Projection π.
    Projection(ProjectionSpec),
    /// Selection σ.
    Selection(SelectionSpec),
    /// Aggregation α (with GROUP-BY / HAVING).
    Aggregation(AggregationSpec),
    /// Streaming θ-join ⋈ (two inputs).
    ThetaJoin(JoinSpec),
    /// Partition join (UDF example; two inputs).
    PartitionJoin(PartitionJoinSpec),
}

impl OperatorDef {
    /// Short operator name used in logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorDef::Projection(_) => "projection",
            OperatorDef::Selection(_) => "selection",
            OperatorDef::Aggregation(_) => "aggregation",
            OperatorDef::ThetaJoin(_) => "theta-join",
            OperatorDef::PartitionJoin(_) => "partition-join",
        }
    }

    /// True for operators that consume two input streams.
    pub fn is_binary(&self) -> bool {
        matches!(
            self,
            OperatorDef::ThetaJoin(_) | OperatorDef::PartitionJoin(_)
        )
    }

    /// True for stateless, per-tuple operators.
    pub fn is_stateless(&self) -> bool {
        matches!(self, OperatorDef::Projection(_) | OperatorDef::Selection(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateFunction;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("timestamp", DataType::Timestamp),
            ("value", DataType::Float),
            ("key", DataType::Int),
            ("aux", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn projection_of_columns_keeps_names_and_types() {
        let s = schema();
        let p = ProjectionSpec::columns(&s, &[0, 2]).unwrap();
        let out = p.output_schema().unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.attribute(1).name(), "key");
        assert_eq!(out.data_type(1), DataType::Int);
        assert!(ProjectionSpec::columns(&s, &[9]).is_err());
    }

    #[test]
    fn projection_of_expressions_infers_types() {
        let s = schema();
        let p = ProjectionSpec::exprs(
            &s,
            vec![
                (Expr::column(0), "timestamp".to_string()),
                (
                    Expr::column(3).div(Expr::literal(5280.0)),
                    "segment".to_string(),
                ),
            ],
        )
        .unwrap();
        let out = p.output_schema().unwrap();
        assert_eq!(out.data_type(0), DataType::Timestamp);
        assert_eq!(out.data_type(1), DataType::Float);
        assert!(ProjectionSpec::exprs(&s, vec![(Expr::column(17), "x".into())]).is_err());
    }

    #[test]
    fn aggregation_output_schema_and_validation() {
        let s = schema();
        let agg = AggregationSpec::new(vec![
            AggregateSpec::new(AggregateFunction::Sum, 1).named("totalValue"),
            AggregateSpec::count(),
        ])
        .with_group_by(vec![2]);
        agg.validate(&s).unwrap();
        let out = agg.output_schema(&s).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out.attribute(0).name(), "timestamp");
        assert_eq!(out.attribute(1).name(), "key");
        assert_eq!(out.attribute(2).name(), "totalValue");
        assert_eq!(out.attribute(3).name(), "cnt");
        assert_eq!(out.data_type(3), DataType::Long);
    }

    #[test]
    fn aggregation_validation_errors() {
        let s = schema();
        assert!(AggregationSpec::new(vec![]).validate(&s).is_err());
        assert!(
            AggregationSpec::new(vec![AggregateSpec::new(AggregateFunction::Sum, 99)])
                .validate(&s)
                .is_err()
        );
        assert!(AggregationSpec::new(vec![AggregateSpec::count()])
            .with_group_by(vec![9])
            .validate(&s)
            .is_err());
        // HAVING over output schema: column 1 of the output is the group key.
        let ok = AggregationSpec::new(vec![AggregateSpec::new(AggregateFunction::Avg, 1)])
            .with_group_by(vec![2])
            .with_having(Expr::column(2).lt(Expr::literal(40.0)));
        assert!(ok.validate(&s).is_ok());
        let bad = AggregationSpec::new(vec![AggregateSpec::count()])
            .with_having(Expr::column(10).lt(Expr::literal(0.0)));
        assert!(bad.validate(&s).is_err());
    }

    #[test]
    fn join_output_schema_renames_collisions() {
        let s = schema();
        let out = JoinSpec::output_schema(&s, &s).unwrap();
        assert_eq!(out.len(), 8);
        assert_eq!(out.attribute(4).name(), "r_timestamp");
        let j = JoinSpec::new(Expr::column(2).eq(Expr::column(4 + 2)));
        assert!(j.validate(&s, &s).is_ok());
        let bad = JoinSpec::new(Expr::column(20).eq(Expr::literal(0.0)));
        assert!(bad.validate(&s, &s).is_err());
    }

    #[test]
    fn partition_join_validation() {
        let s = schema();
        let pj = PartitionJoinSpec::new(2, 2);
        assert!(pj.validate(&s, &s).is_ok());
        assert!(PartitionJoinSpec::new(9, 2).validate(&s, &s).is_err());
        assert!(PartitionJoinSpec::new(2, 9).validate(&s, &s).is_err());
        assert_eq!(PartitionJoinSpec::output_schema(&s), s);
    }

    #[test]
    fn operator_def_metadata() {
        let s = schema();
        let proj = OperatorDef::Projection(ProjectionSpec::columns(&s, &[0, 1]).unwrap());
        let sel =
            OperatorDef::Selection(SelectionSpec::new(Expr::column(1).gt(Expr::literal(0.0))));
        let agg = OperatorDef::Aggregation(AggregationSpec::new(vec![AggregateSpec::count()]));
        let join = OperatorDef::ThetaJoin(JoinSpec::new(Expr::literal(1.0)));
        assert!(proj.is_stateless());
        assert!(sel.is_stateless());
        assert!(!agg.is_stateless());
        assert!(join.is_binary());
        assert!(!agg.is_binary());
        assert_eq!(proj.name(), "projection");
        assert_eq!(join.name(), "theta-join");
    }
}
