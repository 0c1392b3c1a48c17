#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]

//! Relational substrate for the skyline workspace: schemas, values, tuples,
//! fixed-width record codecs, workload generators, statistics, and sample
//! datasets.
//!
//! The paper ("Skyline with Presorting", Chomicki/Godfrey/Gryz/Liang, ICDE
//! 2003) runs its experiments over a table of one million 100-byte tuples:
//! ten 4-byte integer attributes followed by a 60-byte string, 40 tuples per
//! 4096-byte page. [`record::RecordLayout::PAPER`] reproduces that layout
//! exactly, and [`gen`] reproduces the data distribution (uniform,
//! pairwise-independent integers over the full `i32` range).
//!
//! Two representations coexist deliberately:
//!
//! * [`table::Table`] — a schema'd, row-oriented in-memory relation used by
//!   the query layer and the examples. Friendly, not fast.
//! * fixed-width byte records (see [`record`]) — what the storage and
//!   execution layers move through pages. All hot-path skyline code extracts
//!   `f64` key rows from these and never touches [`value::Value`].

pub mod csv;
pub mod gen;
pub mod record;
pub mod rng;
pub mod samples;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use record::{RecordLayout, PAGE_SIZE};
pub use rng::Rng;
pub use schema::{Column, ColumnType, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::{KeyColumn, Table};
#[doc(hidden)]
pub use tuple::__into_value;
pub use tuple::Tuple;
pub use value::Value;
