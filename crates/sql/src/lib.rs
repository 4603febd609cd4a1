//! # saber-sql
//!
//! A streaming SQL frontend for the SABER reproduction. The paper (§3)
//! defines its workloads as declarative sliding-window relational queries;
//! this crate accepts that dialect as text and compiles it into the
//! [`saber_query::Query`] IR executed by the engine:
//!
//! ```text
//! SELECT [ISTREAM | RSTREAM] <columns / aggregates>
//! FROM <stream> [ROWS n SLIDE m | RANGE t SLIDE s | RANGE UNBOUNDED]
//! [JOIN <stream> [window] ON <predicate>]
//! [WHERE <predicate>]
//! [GROUP BY <columns>]
//! [HAVING <predicate>]
//! ```
//!
//! The pipeline is: [`token`] (lexer) → [`parser`] (recursive descent) →
//! [`ast`] (typed, spanned) → [`planner`] (schema-aware name resolution and
//! type checking against a [`Catalog`] of [`saber_types::Schema`]s). Every
//! stage reports failures as a [`ParseError`] that renders a caret diagnostic
//! pointing at the offending source span. The full language reference lives
//! in `docs/sql.md`.
//!
//! ## Example
//!
//! ```
//! use saber_sql::{compile, Catalog};
//! use saber_types::{DataType, Schema};
//!
//! let schema = Schema::from_pairs(&[
//!     ("timestamp", DataType::Timestamp),
//!     ("value", DataType::Float),
//!     ("plug", DataType::Int),
//! ])
//! .unwrap()
//! .into_ref();
//! let catalog = Catalog::new().with_stream("SmartGridStr", schema);
//!
//! // SG2 of the paper: per-plug sliding average load.
//! let query = compile(
//!     "SELECT timestamp, plug, AVG(value) AS localAvgLoad \
//!      FROM SmartGridStr [RANGE 3600 SLIDE 1] GROUP BY plug",
//!     &catalog,
//! )
//! .unwrap();
//! assert!(query.has_aggregation());
//! assert_eq!(query.output_schema.attribute(2).name(), "localAvgLoad");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests fork bare threads to race the code under test"
    )
)]

pub mod ast;
pub mod error;
pub mod parser;
pub mod planner;
pub mod shared;
pub mod token;

pub use ast::SelectStatement;
pub use error::{ParseError, Span};
pub use parser::parse;
pub use planner::{plan, Catalog};
pub use shared::SharedCatalog;

use saber_query::Query;

/// Parses and plans `sql` against `catalog`, producing an executable
/// [`Query`] named after its input stream (`sql(<stream>)`).
///
/// This is the one-call path used by `Saber::add_query_sql`; use [`parse`]
/// and [`plan`] separately to inspect or transform the AST.
pub fn compile(sql: &str, catalog: &Catalog) -> Result<Query, ParseError> {
    let stmt = parse(sql)?;
    let name = format!("sql({})", stmt.from.name);
    plan(&stmt, &name, catalog, sql)
}

/// Like [`compile`], but names the query explicitly (the name shows up in
/// metrics and reports).
pub fn compile_named(sql: &str, name: &str, catalog: &Catalog) -> Result<Query, ParseError> {
    let stmt = parse(sql)?;
    plan(&stmt, name, catalog, sql)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_types::{DataType, Schema};

    fn catalog() -> Catalog {
        Catalog::new().with_stream(
            "S",
            Schema::from_pairs(&[
                ("timestamp", DataType::Timestamp),
                ("v", DataType::Float),
                ("k", DataType::Int),
            ])
            .unwrap()
            .into_ref(),
        )
    }

    #[test]
    fn compile_names_queries_after_their_stream() {
        let q = compile("SELECT * FROM S [ROWS 8] WHERE v > 0", &catalog()).unwrap();
        assert_eq!(q.name, "sql(S)");
        let q = compile_named("SELECT * FROM S [ROWS 8] WHERE v > 0", "mine", &catalog()).unwrap();
        assert_eq!(q.name, "mine");
    }

    #[test]
    fn compile_propagates_parse_and_plan_errors() {
        assert!(compile("SELEC *", &catalog()).is_err());
        assert!(compile("SELECT * FROM Missing [ROWS 8] WHERE v > 0", &catalog()).is_err());
    }
}
