#![warn(missing_docs)]

//! End-to-end benchmark of the skyline session server.
//!
//! The `e2e` binary generates a workload's tables from a seed, serves
//! them through `skyline_server::SkylineServer`, drives SQL at it from
//! closed-loop clients and reports what a client sees (latency,
//! throughput, set-up time) with tracing off. With `--trace 1`
//! it instead reports where the time goes, layer by layer, from a
//! replay of the executor's public calls with a span around each. Every
//! result is checked against a reference computed by this package's own
//! dominance loop. See `README.md` for the glossary and the table of
//! which layer metric should move which end-to-end metric.

pub mod compare;
pub mod driver;
pub mod env;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
