#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]

//! A small SQL dialect with the paper's `SKYLINE OF` clause (Figure 3):
//!
//! ```sql
//! SELECT * FROM GoodEats
//!   WHERE price < 60
//!   SKYLINE OF S MAX, F MAX, D MAX, price MIN
//!   ORDER BY price ASC
//!   LIMIT 3
//! ```
//!
//! The pipeline is tokenizer → parser → logical plan → execution against a
//! [`catalog::Catalog`] of in-memory tables, with the skyline computed by
//! `skyline-core`'s SFS. [`rewrite::to_except_sql`] emits the equivalent
//! plain-SQL `EXCEPT` query of the paper's Figure 5 — the thing a user
//! would have to write (and an engine would have to brute-force) without
//! the operator.
//!
//! ```
//! use skyline_query::{catalog::Catalog, execute};
//! let mut cat = Catalog::new();
//! cat.register("GoodEats", skyline_relation::samples::good_eats());
//! let out = execute(
//!     "SELECT restaurant FROM GoodEats SKYLINE OF S MAX, F MAX, D MAX, price MIN",
//!     &cat,
//! ).unwrap();
//! assert_eq!(out.len(), 4);
//! ```

pub mod ast;
pub mod catalog;
pub mod ddl;
pub mod error;
pub mod expr;
pub mod options;
pub mod parser;
pub mod plan;
pub mod pushdown;
pub mod rewrite;
pub mod token;

pub use error::QueryError;
pub use options::ExecOptions;
pub use parser::parse;
pub use plan::{
    execute, execute_query, execute_query_into, execute_query_with, execute_with, explain,
};
