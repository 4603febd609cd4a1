//! The synthetic workload *Syn* (paper §6.1).
//!
//! Tuples are 32 bytes: a 64-bit timestamp plus six 32-bit attribute values
//! drawn from a uniform distribution; the first attribute is a float (used by
//! aggregation and projection), the rest are integers. The query factories
//! build the parameterised queries of Table 1: PROJ-m, SELECT-n, AGG-f,
//! GROUP-BY-o and JOIN-r, with byte-denominated windows `ω(size, slide)` as
//! used throughout §6.3–§6.6.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saber_query::expr::{conjunction, disjunction};
use saber_query::{AggregateFunction, Expr, Query, QueryBuilder, WindowSpec};
use saber_types::schema::SchemaRef;
use saber_types::{DataType, RowBuffer, Schema};

/// Row size of synthetic tuples (32 bytes).
pub const TUPLE_SIZE: usize = 32;

/// The synthetic stream schema: 64-bit timestamp + six 32-bit values.
pub fn schema() -> SchemaRef {
    Schema::from_pairs(&[
        ("timestamp", DataType::Timestamp),
        ("a1", DataType::Float),
        ("a2", DataType::Int),
        ("a3", DataType::Int),
        ("a4", DataType::Int),
        ("a5", DataType::Int),
        ("a6", DataType::Int),
    ])
    .unwrap()
    .into_ref()
}

/// Generates `rows` synthetic tuples with consecutive timestamps starting at
/// zero. `seed` makes generation deterministic.
pub fn generate(schema: &SchemaRef, rows: usize, seed: u64) -> RowBuffer {
    generate_from(schema, rows, seed, 0)
}

/// Generates `rows` synthetic tuples with timestamps starting at `start_ts`.
pub fn generate_from(schema: &SchemaRef, rows: usize, seed: u64, start_ts: i64) -> RowBuffer {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = RowBuffer::with_capacity(schema.clone(), rows);
    for i in 0..rows {
        let mut row = buf.push_uninit();
        row.set_i64(0, start_ts + i as i64);
        row.set_f32(1, rng.gen::<f32>());
        for col in 2..7 {
            row.set_i32(col, rng.gen_range(0..1024));
        }
    }
    buf
}

/// Converts a byte-denominated window `ω(size, slide)` into a count window
/// over 32-byte synthetic tuples.
pub fn window_bytes(size_bytes: u64, slide_bytes: u64) -> WindowSpec {
    WindowSpec::count_from_bytes(size_bytes, slide_bytes, TUPLE_SIZE)
}

/// PROJ-m: a projection with `m` projected attributes, each wrapped in
/// `arith_ops` arithmetic operations (PROJ6* of §6.6 uses ~100).
pub fn proj(m: usize, arith_ops: usize, window: WindowSpec) -> Query {
    let s = schema();
    let mut exprs: Vec<(Expr, &str)> = vec![(Expr::column(0), "timestamp")];
    let names = ["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9", "p10"];
    for (k, name) in names.iter().enumerate().take(m.clamp(1, 10)) {
        let col = 1 + (k % 6);
        let mut e = Expr::column(col);
        for j in 0..arith_ops {
            e = e
                .mul(Expr::literal(1.0 + (j % 3) as f64 * 0.25))
                .add(Expr::literal(0.5));
        }
        exprs.push((e, name));
    }
    QueryBuilder::new(format!("PROJ{m}"), s)
        .window(window)
        .project(exprs)
        .build()
        .expect("valid PROJ query")
}

/// SELECT-n: a selection with `n` predicates over the integer attributes.
pub fn select(n: usize, window: WindowSpec) -> Query {
    let s = schema();
    let n = n.max(1);
    let mut predicates = Vec::with_capacity(n);
    for k in 0..n {
        let col = 2 + (k % 5);
        // Each predicate keeps ~half the tuples so the conjunction stays
        // selective but non-empty for small n.
        predicates.push(
            Expr::column(col)
                .ge(Expr::literal(0.0))
                .and(Expr::column(col).lt(Expr::literal(1024.0 - (k % 7) as f64))),
        );
    }
    QueryBuilder::new(format!("SELECT{n}"), s)
        .window(window)
        .select(conjunction(predicates))
        .build()
        .expect("valid SELECT query")
}

/// The Fig. 16 style selection: `p1 ∧ (p2 ∨ … ∨ pn)` over an integer column,
/// whose cost explodes when `p1` matches (task-failure surges).
pub fn select_surge(n: usize, trigger_col: usize, trigger_value: i32, window: WindowSpec) -> Query {
    let s = schema();
    let p1 = Expr::column(trigger_col).eq(Expr::literal(trigger_value as f64));
    let rest: Vec<Expr> = (0..n.max(2) - 1)
        .map(|k| Expr::column(2 + (k % 5)).eq(Expr::literal((k % 1024) as f64)))
        .collect();
    QueryBuilder::new(format!("SELECT{n}*"), s)
        .window(window)
        .select(p1.and(disjunction(rest)))
        .build()
        .expect("valid surge SELECT query")
}

/// AGG-f: a windowed aggregation with function `f` over the float attribute.
pub fn agg(function: AggregateFunction, window: WindowSpec) -> Query {
    let s = schema();
    QueryBuilder::new(format!("AGG{}", function.name()), s)
        .window(window)
        .aggregate(function, 1)
        .build()
        .expect("valid AGG query")
}

/// GROUP-BY-o: an aggregation with a GROUP-BY producing about `groups`
/// distinct groups, computing `cnt` and `sum` (as in Fig. 8).
pub fn group_by(groups: usize, window: WindowSpec) -> Query {
    let s = schema();
    let groups = groups.clamp(1, 1024) as f64;
    QueryBuilder::new(format!("GROUP-BY{groups}"), s)
        .window(window)
        // Derive a group key with the requested cardinality from a2.
        .project(vec![
            (Expr::column(0), "timestamp"),
            (Expr::column(2).rem(Expr::literal(groups)), "group"),
            (Expr::column(1), "value"),
        ])
        .aggregate_count()
        .aggregate(AggregateFunction::Sum, 2)
        .group_by(vec![1])
        .build()
        .expect("valid GROUP-BY query")
}

/// JOIN-r: a θ-join of two synthetic streams with `r` predicates.
pub fn join(r: usize, window: WindowSpec) -> Query {
    let s = schema();
    let r = r.max(1);
    let width = 7;
    let mut predicates = Vec::with_capacity(r);
    // First predicate: an equality on a small key domain (join selectivity).
    predicates.push(
        Expr::column(2)
            .rem(Expr::literal(64.0))
            .eq(Expr::column(width + 2).rem(Expr::literal(64.0))),
    );
    for k in 1..r {
        let col = 2 + (k % 5);
        predicates.push(Expr::column(col).ge(Expr::column(width + col).sub(Expr::literal(1024.0))));
    }
    QueryBuilder::new(format!("JOIN{r}"), s.clone())
        .window(window)
        .theta_join(s, window, conjunction(predicates))
        .build()
        .expect("valid JOIN query")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_tuples_are_32_bytes_and_deterministic() {
        let s = schema();
        assert_eq!(s.row_size(), TUPLE_SIZE);
        let a = generate(&s, 100, 7);
        let b = generate(&s, 100, 7);
        assert_eq!(a.bytes(), b.bytes());
        let c = generate(&s, 100, 8);
        assert_ne!(a.bytes(), c.bytes());
        assert_eq!(a.row(10).timestamp(), 10);
        let v = a.row(5).get_f32(1);
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn byte_windows_translate_to_tuple_counts() {
        let w = window_bytes(32 * 1024, 32);
        assert_eq!(w.size(), 1024);
        assert_eq!(w.slide(), 1);
    }

    #[test]
    fn query_factories_build_valid_queries() {
        let w = window_bytes(32 * 1024, 32 * 1024);
        assert_eq!(proj(4, 0, w).name, "PROJ4");
        // Six projected attributes after the timestamp.
        assert_eq!(proj(6, 100, w).output_schema.len(), 7);
        assert_eq!(select(16, w).name, "SELECT16");
        assert_eq!(agg(AggregateFunction::Avg, w).name, "AGGavg");
        assert!(group_by(64, w).has_aggregation());
        let j = join(4, window_bytes(4096, 4096));
        assert!(j.is_join());
        assert_eq!(j.num_inputs(), 2);
        assert_eq!(select_surge(500, 2, 3, w).name, "SELECT500*");
    }
}
