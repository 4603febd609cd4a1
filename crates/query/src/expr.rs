//! Scalar expressions over stream tuples.
//!
//! Expressions are small ASTs evaluated directly on serialised rows through
//! [`TupleRef`] (no per-tuple object materialisation). They cover everything
//! the paper's workloads need: column references, literals, arithmetic
//! (`position / 5280` in LRB1, the synthetic PROJ-m arithmetic expressions),
//! comparisons and boolean connectives (the `p1 ∧ (p2 ∨ … ∨ p500)` predicate
//! of Fig. 16), and join predicates over a pair of tuples.
//!
//! Numeric evaluation happens in the common `f64` domain; predicates evaluate
//! to booleans.

use saber_types::{DataType, Result, SaberError, Schema, TupleRef};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (division by zero evaluates to `0.0`).
    Div,
    /// Remainder (modulo zero evaluates to `0.0`).
    Mod,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to input attribute `index`. For join predicates, indices
    /// `0..left_width` address the left tuple and `left_width..` the right.
    Column(usize),
    /// A numeric literal.
    Literal(f64),
    /// Arithmetic over two sub-expressions.
    Arith(BinaryOp, Box<Expr>, Box<Expr>),
    /// Comparison of two sub-expressions, producing a boolean.
    Compare(CompareOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn column(index: usize) -> Expr {
        Expr::Column(index)
    }

    /// Numeric literal.
    pub fn literal(v: f64) -> Expr {
        Expr::Literal(v)
    }

    /// `self + rhs`
    #[allow(clippy::should_implement_trait)] // DSL builder, not numeric add
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Arith(BinaryOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`
    #[allow(clippy::should_implement_trait)] // DSL builder, not numeric sub
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Arith(BinaryOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`
    #[allow(clippy::should_implement_trait)] // DSL builder, not numeric mul
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(BinaryOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`
    #[allow(clippy::should_implement_trait)] // DSL builder, not numeric div
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(BinaryOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `self % rhs`
    #[allow(clippy::should_implement_trait)] // DSL builder, not numeric rem
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::Arith(BinaryOp::Mod, Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Compare(CompareOp::Eq, Box::new(self), Box::new(rhs))
    }

    /// `self != rhs`
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Compare(CompareOp::Ne, Box::new(self), Box::new(rhs))
    }

    /// `self < rhs`
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Compare(CompareOp::Lt, Box::new(self), Box::new(rhs))
    }

    /// `self <= rhs`
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Compare(CompareOp::Le, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Compare(CompareOp::Gt, Box::new(self), Box::new(rhs))
    }

    /// `self >= rhs`
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Compare(CompareOp::Ge, Box::new(self), Box::new(rhs))
    }

    /// `self AND rhs`
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `NOT self`
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Numeric evaluation against a single tuple. Boolean sub-results are
    /// coerced to `1.0` / `0.0`.
    pub fn eval(&self, tuple: &TupleRef<'_>) -> f64 {
        match self {
            Expr::Column(i) => tuple.get_numeric(*i),
            Expr::Literal(v) => *v,
            Expr::Arith(op, l, r) => {
                let a = l.eval(tuple);
                let b = r.eval(tuple);
                apply_arith(*op, a, b)
            }
            Expr::Compare(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
                if self.eval_bool(tuple) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Boolean evaluation against a single tuple. Numeric sub-results are
    /// interpreted as "non-zero is true".
    pub fn eval_bool(&self, tuple: &TupleRef<'_>) -> bool {
        match self {
            Expr::Compare(op, l, r) => apply_compare(*op, l.eval(tuple), r.eval(tuple)),
            Expr::And(l, r) => l.eval_bool(tuple) && r.eval_bool(tuple),
            Expr::Or(l, r) => l.eval_bool(tuple) || r.eval_bool(tuple),
            Expr::Not(e) => !e.eval_bool(tuple),
            other => other.eval(tuple) != 0.0,
        }
    }

    /// Numeric evaluation against a *pair* of tuples (θ-join predicates).
    /// Columns `0..split` read from `left`, columns `split..` from `right`.
    pub fn eval_join(&self, left: &TupleRef<'_>, right: &TupleRef<'_>, split: usize) -> f64 {
        match self {
            Expr::Column(i) => {
                if *i < split {
                    left.get_numeric(*i)
                } else {
                    right.get_numeric(*i - split)
                }
            }
            Expr::Literal(v) => *v,
            Expr::Arith(op, l, r) => apply_arith(
                *op,
                l.eval_join(left, right, split),
                r.eval_join(left, right, split),
            ),
            Expr::Compare(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => {
                if self.eval_join_bool(left, right, split) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Boolean evaluation against a pair of tuples (θ-join predicates).
    pub fn eval_join_bool(&self, left: &TupleRef<'_>, right: &TupleRef<'_>, split: usize) -> bool {
        match self {
            Expr::Compare(op, l, r) => apply_compare(
                *op,
                l.eval_join(left, right, split),
                r.eval_join(left, right, split),
            ),
            Expr::And(l, r) => {
                l.eval_join_bool(left, right, split) && r.eval_join_bool(left, right, split)
            }
            Expr::Or(l, r) => {
                l.eval_join_bool(left, right, split) || r.eval_join_bool(left, right, split)
            }
            Expr::Not(e) => !e.eval_join_bool(left, right, split),
            other => other.eval_join(left, right, split) != 0.0,
        }
    }

    /// The set of columns referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Arith(_, l, r) | Expr::Compare(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }

    /// Checks that every referenced column exists in `schema` (or in the
    /// combined schema of width `width` for join predicates).
    pub fn validate_width(&self, width: usize) -> Result<()> {
        for c in self.referenced_columns() {
            if c >= width {
                return Err(SaberError::Query(format!(
                    "expression references column {c} but only {width} columns are available"
                )));
            }
        }
        Ok(())
    }

    /// Checks the expression against a concrete input schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        self.validate_width(schema.len())
    }

    /// The output type this expression naturally produces when projected:
    /// comparisons/boolean operators produce `Int` (0/1), pure column
    /// references keep their column type, arithmetic produces `Float` unless
    /// all inputs are integer columns/literals, in which case `Int`... in
    /// practice the workloads only need `Float` vs column passthrough, so
    /// arithmetic defaults to `Float`.
    pub fn output_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Column(i) => schema.data_type(*i),
            Expr::Literal(_) => DataType::Float,
            Expr::Arith(..) => DataType::Float,
            Expr::Compare(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(..) => DataType::Int,
        }
    }
}

#[inline]
fn apply_arith(op: BinaryOp, a: f64, b: f64) -> f64 {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                0.0
            } else {
                a % b
            }
        }
    }
}

#[inline]
fn apply_compare(op: CompareOp, a: f64, b: f64) -> bool {
    match op {
        CompareOp::Eq => a == b,
        CompareOp::Ne => a != b,
        CompareOp::Lt => a < b,
        CompareOp::Le => a <= b,
        CompareOp::Gt => a > b,
        CompareOp::Ge => a >= b,
    }
}

/// Builds the conjunction of a list of predicates (`p1 AND p2 AND ...`).
/// Returns `Literal(1.0)` (always true) for an empty list.
pub fn conjunction(mut predicates: Vec<Expr>) -> Expr {
    match predicates.len() {
        0 => Expr::Literal(1.0),
        1 => predicates.pop().unwrap(),
        _ => {
            let mut it = predicates.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, p| acc.and(p))
        }
    }
}

/// Builds the disjunction of a list of predicates (`p1 OR p2 OR ...`).
/// Returns `Literal(0.0)` (always false) for an empty list.
pub fn disjunction(mut predicates: Vec<Expr>) -> Expr {
    match predicates.len() {
        0 => Expr::Literal(0.0),
        1 => predicates.pop().unwrap(),
        _ => {
            let mut it = predicates.into_iter();
            let first = it.next().unwrap();
            it.fold(first, |acc, p| acc.or(p))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_types::{Schema, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("ts", DataType::Timestamp),
            ("a", DataType::Float),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ])
        .unwrap()
    }

    fn row(ts: i64, a: f32, b: i32, c: i32) -> Vec<u8> {
        let mut out = Vec::new();
        schema()
            .encode_row(
                &[
                    Value::Timestamp(ts),
                    Value::Float(a),
                    Value::Int(b),
                    Value::Int(c),
                ],
                &mut out,
            )
            .unwrap();
        out
    }

    #[test]
    fn arithmetic_evaluation() {
        let s = schema();
        let bytes = row(10, 2.5, 4, 7);
        let t = TupleRef::new(&s, &bytes);
        let e = Expr::column(1).mul(Expr::literal(2.0)).add(Expr::column(2));
        assert_eq!(e.eval(&t), 9.0);
        let e = Expr::column(3).div(Expr::literal(2.0));
        assert_eq!(e.eval(&t), 3.5);
        let e = Expr::column(2).rem(Expr::literal(3.0));
        assert_eq!(e.eval(&t), 1.0);
        let e = Expr::column(2).sub(Expr::column(3));
        assert_eq!(e.eval(&t), -3.0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let s = schema();
        let bytes = row(0, 1.0, 0, 0);
        let t = TupleRef::new(&s, &bytes);
        assert_eq!(Expr::column(1).div(Expr::column(2)).eval(&t), 0.0);
        assert_eq!(Expr::column(1).rem(Expr::column(2)).eval(&t), 0.0);
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let s = schema();
        let bytes = row(0, 0.75, 3, -1);
        let t = TupleRef::new(&s, &bytes);
        assert!(Expr::column(1).gt(Expr::literal(0.5)).eval_bool(&t));
        assert!(!Expr::column(1).gt(Expr::literal(0.8)).eval_bool(&t));
        assert!(Expr::column(2).ge(Expr::literal(3.0)).eval_bool(&t));
        assert!(Expr::column(2).le(Expr::literal(3.0)).eval_bool(&t));
        assert!(Expr::column(3).lt(Expr::literal(0.0)).eval_bool(&t));
        assert!(Expr::column(2).ne(Expr::literal(4.0)).eval_bool(&t));
        assert!(Expr::column(2).eq(Expr::literal(3.0)).eval_bool(&t));

        let p = Expr::column(1)
            .gt(Expr::literal(0.5))
            .and(Expr::column(2).eq(Expr::literal(3.0)));
        assert!(p.eval_bool(&t));
        let p = Expr::column(1)
            .gt(Expr::literal(0.9))
            .or(Expr::column(2).eq(Expr::literal(3.0)));
        assert!(p.eval_bool(&t));
        assert!(!p.clone().negate().eval_bool(&t));
        // Boolean coerced to numeric.
        assert_eq!(p.eval(&t), 1.0);
    }

    #[test]
    fn join_evaluation_splits_columns() {
        let s = schema();
        let lb = row(0, 1.0, 10, 0);
        let rb = row(0, 2.0, 10, 5);
        let l = TupleRef::new(&s, &lb);
        let r = TupleRef::new(&s, &rb);
        // left.b == right.b (column 2 on both sides; right side offset by 4).
        let pred = Expr::column(2).eq(Expr::column(4 + 2));
        assert!(pred.eval_join_bool(&l, &r, 4));
        // left.a < right.a
        let pred = Expr::column(1).lt(Expr::column(4 + 1));
        assert!(pred.eval_join_bool(&l, &r, 4));
        // Numeric join evaluation.
        let sum = Expr::column(1).add(Expr::column(4 + 1));
        assert_eq!(sum.eval_join(&l, &r, 4), 3.0);
    }

    #[test]
    fn referenced_columns() {
        let e = Expr::column(3)
            .mul(Expr::literal(2.0))
            .add(Expr::column(1))
            .gt(Expr::column(3));
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn validation_checks_column_bounds() {
        let s = schema();
        assert!(Expr::column(3).validate(&s).is_ok());
        assert!(Expr::column(4).validate(&s).is_err());
        assert!(Expr::column(7).validate_width(8).is_ok());
        assert!(Expr::column(8).validate_width(8).is_err());
    }

    #[test]
    fn output_types() {
        let s = schema();
        assert_eq!(Expr::column(2).output_type(&s), DataType::Int);
        assert_eq!(Expr::column(1).output_type(&s), DataType::Float);
        assert_eq!(
            Expr::column(2).add(Expr::literal(1.0)).output_type(&s),
            DataType::Float
        );
        assert_eq!(
            Expr::column(2).gt(Expr::literal(1.0)).output_type(&s),
            DataType::Int
        );
    }

    #[test]
    fn conjunction_and_disjunction_builders() {
        let s = schema();
        let bytes = row(0, 0.6, 2, 3);
        let t = TupleRef::new(&s, &bytes);
        let c = conjunction(vec![
            Expr::column(1).gt(Expr::literal(0.5)),
            Expr::column(2).eq(Expr::literal(2.0)),
            Expr::column(3).eq(Expr::literal(3.0)),
        ]);
        assert!(c.eval_bool(&t));
        let d = disjunction(vec![
            Expr::column(1).gt(Expr::literal(0.9)),
            Expr::column(2).eq(Expr::literal(2.0)),
        ]);
        assert!(d.eval_bool(&t));
        assert!(conjunction(vec![]).eval_bool(&t));
        assert!(!disjunction(vec![]).eval_bool(&t));
        // Fig. 16 shape: p1 AND (p2 OR ... OR pn).
        let fig16 = Expr::column(2).eq(Expr::literal(2.0)).and(disjunction(vec![
            Expr::column(3).eq(Expr::literal(99.0)),
            Expr::column(3).eq(Expr::literal(3.0)),
        ]));
        assert!(fig16.eval_bool(&t));
    }
}
