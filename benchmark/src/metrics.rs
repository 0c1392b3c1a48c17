//! Turning stopwatch samples, spans and counters into the named metrics
//! `BENCHMARK.json` lists.
//!
//! One rule combines query classes: a per-layer time is the median of
//! each class's samples, averaged over the classes weighted by their
//! share of the schedule — the mean cost of that layer per query of the
//! mix. On the four single-class workloads that is just the median.
//! Counters are not averaged: they are those of the workload's paged
//! class, per query.

use crate::driver::ServerRun;
use crate::replay::{ClassTrace, Counters, EXECUTE_STAGES};
use crate::stats::{p50, percentile, sorted};
use crate::workload::Workload;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measurement.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(run: &ServerRun, setup_s: f64) -> Vec<Metric> {
    let total: Vec<f64> = run.samples.iter().map(|s| s.total_ms).collect();
    let first: Vec<f64> = run.samples.iter().map(|s| s.first_batch_ms).collect();
    vec![
        m("query_p50_ms", "ms", p50(&total)),
        m("first_batch_p50_ms", "ms", p50(&first)),
        m("rows_per_s", "rows/s", run.rows_per_s),
        m("setup_s", "s", setup_s),
    ]
}

/// `Σ weight·value / Σ weight` over the classes.
fn weighted(weights: &[usize], value: impl Fn(usize) -> f64) -> f64 {
    let total: usize = weights.iter().sum();
    let sum: f64 = weights
        .iter()
        .enumerate()
        .map(|(c, &w)| w as f64 * value(c))
        .sum();
    sum / total as f64
}

/// The per-layer metrics of a traced run: `run` is the run's untraced
/// server phase, `rss_kb` that phase's (mean, peak) resident set size,
/// `traces` the replay's samples per class.
#[must_use]
pub fn per_layer(
    w: &Workload,
    run: &ServerRun,
    rss_kb: (f64, u64),
    traces: &[ClassTrace],
) -> Vec<Metric> {
    let weights = w.class_weights();
    let stage = |name: &str| {
        weighted(&weights, |c| {
            traces[c].stages.get(name).map_or(0.0, |v| p50(v))
        })
    };
    let execute_ms = weighted(&weights, |c| p50(&traces[c].execute_ms));
    let attributed: f64 = EXECUTE_STAGES.iter().map(|s| stage(s)).sum();
    let residual_ms = execute_ms - attributed;
    let traced_ms = weighted(&weights, |c| p50(&traces[c].traced_ms));
    let untraced_ms = weighted(&weights, |c| p50(&traces[c].untraced_ms));

    let examined = weighted(&weights, |c| w.classes[c].table_rows as f64);
    let returned = weighted(&weights, |c| traces[c].result_rows as f64);
    let checksum = weights.iter().zip(traces).fold(0u64, |s, (&wt, t)| {
        s.wrapping_add(t.checksum.wrapping_mul(wt as u64))
    });

    // the paged class: its counters, and its own filter median for the
    // per-unit costs
    let paged = traces.iter().find(|t| t.counters.is_some());
    let k: Counters = paged.and_then(|t| t.counters).unwrap_or_default();
    let paged_filter_ns = paged
        .and_then(|t| t.stages.get("core.filter"))
        .map_or(0.0, |v| p50(v) * 1e6);
    let per = |count: u64| {
        if count == 0 {
            0.0
        } else {
            paged_filter_ns / count as f64
        }
    };
    // a probe either skips a 16-lane block whole or evaluates its lanes
    let blocks_probed = k.filter.lanes_compared as f64 / skyline_core::BLOCK_LANES as f64;
    let skipped = k.filter.blocks_skipped as f64;
    let skip_share = if skipped + blocks_probed > 0.0 {
        skipped / (skipped + blocks_probed)
    } else {
        0.0
    };

    let total = sorted(&run.samples.iter().map(|s| s.total_ms).collect::<Vec<_>>());
    let submit: Vec<f64> = run.samples.iter().map(|s| s.submit_us).collect();
    let stream: Vec<f64> = run
        .samples
        .iter()
        .map(|s| s.total_ms - s.first_batch_ms)
        .collect();
    let round_trip_p50 = |of: &dyn Fn(usize) -> bool| {
        let v: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| of(s.class))
            .map(|s| s.total_ms)
            .collect();
        p50(&v)
    };
    let named_p50 = |name: &str| round_trip_p50(&|c| w.classes[c].name == name);
    let finished = (run.stats.completed + run.stats.cancelled + run.stats.failed).max(1) as f64;

    vec![
        m(
            "query.parse_us",
            "us",
            weighted(&weights, |c| p50(&traces[c].parse_us)),
        ),
        m("query.execute_ms", "ms", execute_ms),
        m("query.residual_ms", "ms", residual_ms),
        m(
            "query.rows_examined_per_result",
            "ratio",
            examined / returned.max(1.0),
        ),
        m("query.result_rows", "count", returned),
        m(
            "query.result_checksum",
            "count",
            (checksum & ((1 << 48) - 1)) as f64,
        ),
        m("query.key_matrix_ms", "ms", stage("query.key_matrix")),
        m("relation.rows_clone_ms", "ms", stage("relation.rows_clone")),
        m("relation.encode_ms", "ms", stage("relation.encode")),
        m("storage.load_heap_ms", "ms", stage("storage.load_heap")),
        m("storage.pages_read", "count", k.io.reads as f64),
        m("storage.pages_written", "count", k.io.writes as f64),
        m(
            "storage.temp_pages_written",
            "count",
            k.filter_io.writes as f64,
        ),
        m("core.entropy_stats_ms", "ms", stage("core.entropy_stats")),
        m("core.presort_ms", "ms", stage("core.presort")),
        m("core.filter_ms", "ms", stage("core.filter")),
        m(
            "core.filter_ns_per_comparison",
            "ns",
            per(k.filter.comparisons),
        ),
        m(
            "core.filter_ns_per_input_row",
            "ns",
            per(k.filter.input_records),
        ),
        m("core.comparisons", "count", k.filter.comparisons as f64),
        m("core.passes", "count", k.filter.passes as f64),
        m(
            "core.window_inserts",
            "count",
            k.filter.window_inserts as f64,
        ),
        m("core.temp_records", "count", k.filter.temp_records as f64),
        m(
            "core.lanes_compared",
            "count",
            k.filter.lanes_compared as f64,
        ),
        m(
            "core.blocks_skipped",
            "count",
            k.filter.blocks_skipped as f64,
        ),
        m("core.block_skip_share", "ratio", skip_share),
        m("core.mem_skyline_ms", "ms", stage("core.mem_skyline")),
        m("core.batch_presort_ms", "ms", stage("core.batch_presort")),
        m("core.batch_filter_ms", "ms", stage("core.batch_filter")),
        m(
            "core.batch_rows_materialized",
            "count",
            k.batch.rows_materialized as f64,
        ),
        m(
            "core.batch_bytes_moved",
            "bytes",
            k.batch.bytes_moved as f64,
        ),
        m("core.shard2_ms", "ms", stage("core.shard2")),
        m(
            "exchange.bytes_exchanged",
            "bytes",
            k.bytes_exchanged as f64,
        ),
        m("exchange.frames", "count", k.exchange_frames as f64),
        m("server.submit_us", "us", p50(&submit)),
        m(
            "server.queue_wait_ms",
            "ms",
            run.stats.queue_wait_ms as f64 / finished,
        ),
        m(
            "server.worker_wall_ms",
            "ms",
            run.stats.wall_ms as f64 / finished,
        ),
        m("server.stream_ms", "ms", p50(&stream)),
        m(
            "server.overhead_ms",
            "ms",
            weighted(&weights, |c| {
                round_trip_p50(&|class| class == c) - p50(&traces[c].execute_ms)
            }),
        ),
        m("server.pages_peak", "pages", run.stats.pages_peak as f64),
        m("server.mean_rss_mb", "MB", rss_kb.0 / 1024.0),
        m("server.peak_rss_mb", "MB", rss_kb.1 as f64 / 1024.0),
        m("server.rejected", "count", run.stats.rejected as f64),
        m("server.query_p90_ms", "ms", percentile(&total, 90.0)),
        m("server.query_samples", "count", total.len() as f64),
        m("server.light_p50_ms", "ms", named_p50("light")),
        m("server.diff_p50_ms", "ms", named_p50("diff")),
        m("server.dimred_p50_ms", "ms", named_p50("dimred")),
        m("server.heavy_p50_ms", "ms", named_p50("heavy")),
        m(
            "trace.unattributed_share",
            "ratio",
            residual_ms / execute_ms,
        ),
        m(
            "trace.overhead_share",
            "ratio",
            (traced_ms - untraced_ms) / untraced_ms,
        ),
    ]
}

/// The `metrics` object of a result line.
#[must_use]
pub fn to_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::escape(x.name),
                x.value,
                crate::json::escape(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}
