//! The traced replay: the same public calls `skyline_query`'s executor
//! and `pushdown` make, issued one by one from here with a span around
//! each, so that time can be attributed to layers before the engine
//! carries any instrumentation of its own.
//!
//! Per query class one iteration runs, single-threaded:
//!
//! 1. `query.execute` — `execute_query_with` under the server's options
//!    but without the server; the whole the stages below must add up to.
//! 2. the staged replay, once with the recorder on and once with it off
//!    (their difference is the tracing overhead). A class whose skyline
//!    the engine pushes down to the paged SFS is replayed as
//!    rows clone → key matrix → encode → `load_heap` →
//!    `entropy_stats_of_records` → `presort` → `sfs_filter`; any other
//!    class as rows clone → `KeyMatrix` + `skyline_auto`.
//! 3. for paged classes, the batch and the 2-shard pipelines over the
//!    same heap. SQL cannot reach them yet; they are baselines.
//!
//! Every replayed path must return the row set the SQL path returned.

use crate::oracle::{self, SkylineInput};
use crate::trace::{Recorder, SpanId};
use crate::workload::{Variant, Workload};
use skyline_core::cardinality::recommend_window_pages;
use skyline_core::external::{
    batch_presort, parallel_batch_filter, BatchConfig, KeySumScore, ShardConfig, ShardStrategy,
};
use skyline_core::lowdim::skyline_auto;
use skyline_core::planner::{
    entropy_stats_of_records, load_heap, presort, sfs_filter, sharded_skyline_pipeline,
};
use skyline_core::{
    Criterion, Direction, KeyMatrix, MetricsSnapshot, SfsConfig, SkylineMetrics, SkylineSpec,
    SortOrder,
};
use skyline_exec::{CancelToken, NarrowLayout, Operator};
use skyline_query::ast::Query;
use skyline_query::catalog::Catalog;
use skyline_query::{execute_query_with, expr, parse, ExecOptions};
use skyline_relation::{ColumnType, RecordLayout, Table, Tuple};
use skyline_server::ServerConfig;
use skyline_storage::{BufferPool, Disk, HeapFile, IoSnapshot, MemDisk};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every stage span of the replay that is a part of `query.execute`:
/// the paged row path's seven and the in-memory path's two (rows clone is
/// in both). Execute time not covered by them is the residual.
pub const EXECUTE_STAGES: [&str; 8] = [
    "relation.rows_clone",
    "query.key_matrix",
    "relation.encode",
    "storage.load_heap",
    "core.entropy_stats",
    "core.presort",
    "core.filter",
    "core.mem_skyline",
];

/// Exact counters of one paged replay iteration. They must not change
/// from one iteration to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// The row path's filter (`sfs_filter` open → drain).
    pub filter: MetricsSnapshot,
    /// Page traffic of the whole row replay on its private disk.
    pub io: IoSnapshot,
    /// The part of `io` the filter stage caused; its writes are temp
    /// spill.
    pub filter_io: IoSnapshot,
    /// The batch pipeline (presort + filter + materialization).
    pub batch: MetricsSnapshot,
    /// Bytes across the 2-shard exchange.
    pub bytes_exchanged: u64,
    /// Frames across the 2-shard exchange.
    pub exchange_frames: u64,
}

/// What the replay gathered for one query class.
#[derive(Default)]
pub struct ClassTrace {
    /// `query::parse` of the class's SQL, microseconds per iteration.
    pub parse_us: Vec<f64>,
    /// `execute_query_with`, milliseconds per iteration.
    pub execute_ms: Vec<f64>,
    /// Stage span durations, milliseconds per iteration, by span name.
    pub stages: BTreeMap<&'static str, Vec<f64>>,
    /// The staged replay's wall clock with the recorder on.
    pub traced_ms: Vec<f64>,
    /// The same replay with the recorder off.
    pub untraced_ms: Vec<f64>,
    /// Exact counters (paged classes only).
    pub counters: Option<Counters>,
    /// Rows in the class's result.
    pub result_rows: usize,
    /// Checksum of the class's result.
    pub checksum: u64,
}

/// Per-class state computed once, outside every stopwatch.
struct Prepared<'a> {
    query: Query,
    /// `(column, is_min)` per criterion in the FROM table.
    crit: Vec<(usize, bool)>,
    /// The relation the in-memory skyline runs over; `None` for a class
    /// the engine pushes down.
    mem_input: Option<SkylineInput<'a>>,
}

/// Replays a workload's classes outside the server.
pub struct Replay<'a> {
    w: &'a Workload,
    catalog: Catalog,
    cfg: ServerConfig,
    prepared: Vec<Prepared<'a>>,
    /// Spans of every traced call.
    pub recorder: Recorder,
    /// One trace per class, same order as the workload's classes.
    pub traces: Vec<ClassTrace>,
    iterations: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl<'a> Replay<'a> {
    /// Prepare to replay `w` under the options a server configured with
    /// `cfg` would execute it with.
    ///
    /// # Errors
    /// SQL the engine's parser rejects.
    pub fn new(w: &'a Workload, cfg: ServerConfig) -> Result<Self, String> {
        let mut prepared = Vec::new();
        for class in &w.classes {
            // a class's variants share shape and table; the first stands
            // for them all
            let class = &class.variants[0];
            let table = w.table(class.spec.table);
            let schema = table.schema();
            let crit: Vec<(usize, bool)> = class
                .spec
                .crit
                .iter()
                .map(|&(c, is_min)| (schema.index_of(c).expect("criterion column"), is_min))
                .collect();
            // the condition under which `plan::apply_skyline` +
            // `pushdown` run the paged engine
            let pushed_down = class.spec.where_a_lt.is_none()
                && !class.spec.dimred
                && table.len() >= cfg.external_threshold
                && crit
                    .iter()
                    .all(|&(c, _)| schema.column(c).ty == ColumnType::Int);
            prepared.push(Prepared {
                query: parse(&class.sql).map_err(err)?,
                crit,
                mem_input: (!pushed_down).then(|| oracle::skyline_input(table, &class.spec)),
            });
        }
        Ok(Replay {
            w,
            catalog: w.catalog(),
            cfg,
            prepared,
            recorder: Recorder::new(true),
            traces: w.classes.iter().map(|_| ClassTrace::default()).collect(),
            iterations: 0,
        })
    }

    /// Iterations completed so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Run one iteration over every class.
    ///
    /// # Errors
    /// An engine error, a replayed path whose rows differ from the SQL
    /// path's, or a counter that changed between iterations.
    pub fn iterate(&mut self) -> Result<(), String> {
        for c in 0..self.w.classes.len() {
            let query_id = self.iterations * self.w.classes.len() as u64 + c as u64;
            self.replay_class(c, query_id)?;
        }
        self.iterations += 1;
        Ok(())
    }

    fn replay_class(&mut self, c: usize, query_id: u64) -> Result<(), String> {
        let quota = self.w.classes[c]
            .quota_pages
            .unwrap_or(self.cfg.quota_pages);
        let class = &self.w.classes[c].variants[0];
        let table = self.w.table(class.spec.table);

        let t = Instant::now();
        let parsed = parse(black_box(&class.sql)).map_err(err)?;
        self.traces[c]
            .parse_us
            .push(t.elapsed().as_secs_f64() * 1e6);
        black_box(parsed);

        // 1. the engine's own executor, as the server's worker calls it
        let opts = ExecOptions::default()
            .with_pool(BufferPool::new(quota))
            .with_cancel(CancelToken::new())
            .with_threads(self.cfg.threads)
            .with_sort_pages(self.cfg.sort_pages)
            .with_external_threshold(self.cfg.external_threshold);
        let span = self.recorder.start("query.execute", None, query_id);
        let t = Instant::now();
        let out = execute_query_with(&self.prepared[c].query, &self.catalog, &opts).map_err(err)?;
        let execute_ms = t.elapsed().as_secs_f64() * 1e3;
        self.recorder.end(span);
        if !class.expected.matches(out.rows()) {
            return Err(format!("execute returned a wrong answer: {}", class.sql));
        }
        let trace = &mut self.traces[c];
        trace.execute_ms.push(execute_ms);
        trace.result_rows = out.len();
        trace.checksum = oracle::checksum(out.rows());
        drop(out);

        // 2. the staged replay, traced then untraced
        let prep = &self.prepared[c];
        let Some(input) = &prep.mem_input else {
            return self.replay_paged(c, query_id, table, class);
        };
        let mut off = Recorder::new(false);
        for traced in [true, false] {
            let rec = if traced { &mut self.recorder } else { &mut off };
            let t = Instant::now();
            let stage_ms = mem_stages(rec, query_id, table, &prep.query, input);
            let total = t.elapsed().as_secs_f64() * 1e3;
            let trace = &mut self.traces[c];
            if traced {
                trace.traced_ms.push(total);
                for (name, ms) in stage_ms {
                    trace.stages.entry(name).or_default().push(ms);
                }
            } else {
                trace.untraced_ms.push(total);
            }
        }
        Ok(())
    }

    fn replay_paged(
        &mut self,
        c: usize,
        query_id: u64,
        table: &Table,
        class: &Variant,
    ) -> Result<(), String> {
        let crit = &self.prepared[c].crit;
        let check = |what: &str, tags: &[usize], trace: &ClassTrace| {
            let rows: Vec<Tuple> = tags.iter().map(|&i| table.rows()[i].clone()).collect();
            if oracle::checksum(&rows) == trace.checksum && rows.len() == trace.result_rows {
                Ok(())
            } else {
                Err(format!(
                    "{what} replay returned {} rows that are not the SQL path's {}: {}",
                    rows.len(),
                    trace.result_rows,
                    class.sql
                ))
            }
        };

        let t = Instant::now();
        let traced = paged_stages(&mut self.recorder, query_id, table, crit, &self.cfg)?;
        let traced_ms = t.elapsed().as_secs_f64() * 1e3;
        check("row", &traced.tags, &self.traces[c])?;

        let t = Instant::now();
        let untraced = paged_stages(&mut Recorder::new(false), query_id, table, crit, &self.cfg)?;
        let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(untraced);

        // 3. the pipelines SQL cannot reach yet, over the same heap
        let rec = &mut self.recorder;
        let wp = traced.window_pages;
        let batch_metrics = SkylineMetrics::shared();
        let narrow = NarrowLayout::new(traced.spec.dims());
        let bcfg = BatchConfig::new(wp);
        let root = rec.start("batch", None, query_id);
        let span = rec.start("core.batch_presort", root, query_id);
        let mut sorted = batch_presort(
            Arc::clone(&traced.heap),
            &traced.layout,
            &traced.spec,
            Arc::new(KeySumScore),
            bcfg.batch_rows,
            self.cfg.sort_pages,
            1,
            Arc::clone(&traced.disk),
            Arc::clone(&batch_metrics),
            None,
        )
        .map_err(err)?;
        sorted.mark_temp();
        let batch_presort_ms = rec.end(span);
        let span = rec.start("core.batch_filter", root, query_id);
        let outcome = parallel_batch_filter(
            Arc::new(sorted),
            Arc::clone(&traced.heap),
            narrow,
            bcfg,
            1,
            Arc::clone(&traced.disk),
            Arc::clone(&batch_metrics),
            None,
            None,
        )
        .map_err(err)?;
        let mut sky = outcome.skyline;
        sky.mark_temp();
        let batch_filter_ms = rec.end(span);
        rec.end(root);
        check("batch", &heap_tags(&sky, &traced.layout)?, &self.traces[c])?;
        drop(sky);

        let rec = &mut self.recorder;
        let span = rec.start("core.shard2", None, query_id);
        let outcome = sharded_skyline_pipeline(
            Arc::clone(&traced.heap),
            &traced.layout,
            &traced.spec,
            ShardConfig::new(2, ShardStrategy::Grid, wp).with_sort_pages(self.cfg.sort_pages),
            Arc::clone(&traced.disk),
            SkylineMetrics::shared(),
            None,
        )
        .map_err(err)?;
        let mut sky = outcome.skyline;
        sky.mark_temp();
        let shard2_ms = rec.end(span);
        check("shard", &heap_tags(&sky, &traced.layout)?, &self.traces[c])?;
        drop(sky);

        let counters = Counters {
            filter: traced.filter,
            io: traced.io,
            filter_io: traced.filter_io,
            batch: batch_metrics.snapshot(),
            bytes_exchanged: outcome.exchange.bytes_exchanged,
            exchange_frames: outcome.exchange.exchange_frames,
        };
        let trace = &mut self.traces[c];
        if trace.counters.is_some_and(|prev| prev != counters) {
            return Err(format!(
                "counters changed between iterations: {:?} then {counters:?}",
                trace.counters
            ));
        }
        trace.counters = Some(counters);
        trace.traced_ms.push(traced_ms);
        trace.untraced_ms.push(untraced_ms);
        let extra = [
            ("core.batch_presort", batch_presort_ms),
            ("core.batch_filter", batch_filter_ms),
            ("core.shard2", shard2_ms),
        ];
        for (name, ms) in traced.stage_ms.into_iter().chain(extra) {
            trace.stages.entry(name).or_default().push(ms);
        }
        Ok(())
    }
}

/// What one pass through the paged stages leaves behind.
struct Paged {
    /// Source row index of every skyline record.
    tags: Vec<usize>,
    /// `(span name, milliseconds)` per stage (zeros when untraced).
    stage_ms: Vec<(&'static str, f64)>,
    filter: MetricsSnapshot,
    io: IoSnapshot,
    filter_io: IoSnapshot,
    /// The loaded input heap, kept for the batch and shard pipelines.
    heap: Arc<HeapFile>,
    layout: RecordLayout,
    spec: SkylineSpec,
    disk: Arc<dyn Disk>,
    window_pages: usize,
}

/// Times the stages of one replay pass as child spans of one root.
struct Stages<'r> {
    rec: &'r mut Recorder,
    root: SpanId,
    query_id: u64,
    /// `(span name, milliseconds)` in call order; zeros when untraced.
    ms: Vec<(&'static str, f64)>,
}

impl<'r> Stages<'r> {
    fn begin(rec: &'r mut Recorder, query_id: u64) -> Self {
        let root = rec.start("replay", None, query_id);
        Stages {
            rec,
            root,
            query_id,
            ms: Vec::new(),
        }
    }

    fn time<T>(&mut self, name: &'static str, stage: impl FnOnce() -> T) -> T {
        let span = self.rec.start(name, self.root, self.query_id);
        let out = stage();
        self.ms.push((name, self.rec.end(span)));
        out
    }

    fn finish(self) -> Vec<(&'static str, f64)> {
        self.rec.end(self.root);
        self.ms
    }
}

/// `plan::apply_skyline` up to the push-down, then
/// `pushdown::external_skyline_with` + `sfs_path`, call for call, on a
/// fresh in-memory disk: same record layout (criteria as i32, the row
/// index as 8-byte payload), same window estimate, same sort budget,
/// same projection.
fn paged_stages(
    rec: &mut Recorder,
    query_id: u64,
    table: &Table,
    crit: &[(usize, bool)],
    cfg: &ServerConfig,
) -> Result<Paged, String> {
    let mut stages = Stages::begin(rec, query_id);
    let k = crit.len();

    let rows: Vec<Tuple> = stages.time("relation.rows_clone", || table.rows().to_vec());

    // the executor builds the oriented f64 matrix before it knows the
    // skyline will be pushed down, and holds it until the rows are back
    let matrix = stages.time("query.key_matrix", || {
        let mut matrix = Vec::with_capacity(rows.len() * k);
        for row in &rows {
            for &(idx, is_min) in crit {
                let v = row.get(idx).as_f64().ok_or("non-numeric criterion")?;
                matrix.push(if is_min { -v } else { v });
            }
        }
        Ok::<_, String>(matrix)
    })?;

    let layout = RecordLayout::new(k, 8);
    let records = stages.time("relation.encode", || {
        let mut records = Vec::with_capacity(rows.len());
        let mut attrs = vec![0i32; k];
        for (rowno, row) in rows.iter().enumerate() {
            for (slot, &(idx, _)) in crit.iter().enumerate() {
                let v = row.get(idx).as_f64().ok_or("non-numeric criterion")?;
                attrs[slot] = v as i32;
            }
            records.push(layout.encode(&attrs, &(rowno as u64).to_le_bytes()));
        }
        Ok::<_, String>(records)
    })?;

    let spec = SkylineSpec::new(
        crit.iter()
            .enumerate()
            .map(|(slot, &(_, is_min))| Criterion {
                attr: slot,
                direction: if is_min {
                    Direction::Min
                } else {
                    Direction::Max
                },
            })
            .collect(),
    );
    let disk: Arc<dyn Disk> = MemDisk::shared();

    let heap = stages.time("storage.load_heap", || {
        load_heap(
            Arc::clone(&disk),
            layout.record_size(),
            records.iter().map(Vec::as_slice),
        )
        .map(|mut heap| {
            heap.mark_temp();
            Arc::new(heap)
        })
        .map_err(err)
    })?;

    let stats = stages.time("core.entropy_stats", || {
        entropy_stats_of_records(&layout, &spec, records.iter().map(Vec::as_slice))
    });
    drop(records);

    let window_pages = recommend_window_pages(rows.len(), k.max(1), 4 * k.max(1));
    let sorted = stages.time("core.presort", || {
        presort(
            Arc::clone(&heap),
            layout,
            spec.clone(),
            SortOrder::Entropy,
            Some(stats),
            cfg.sort_pages,
            Arc::clone(&disk),
        )
        .map(|mut sorted| {
            sorted.mark_temp();
            Arc::new(sorted)
        })
        .map_err(err)
    })?;

    let metrics = SkylineMetrics::shared();
    let io_before = disk.stats().snapshot();
    let tags = stages.time("core.filter", || {
        let mut sfs = sfs_filter(
            sorted,
            layout,
            spec.clone(),
            SfsConfig::new(window_pages).with_projection(),
            Arc::clone(&disk),
            Arc::clone(&metrics),
        )
        .map_err(err)?;
        let mut tags = Vec::new();
        sfs.open().map_err(err)?;
        while let Some(r) = sfs.next().map_err(err)? {
            tags.push(tag_of(&layout, r)?);
        }
        sfs.close();
        Ok::<_, String>(tags)
    })?;
    let io = disk.stats().snapshot();
    drop((matrix, rows));

    Ok(Paged {
        tags,
        stage_ms: stages.finish(),
        filter: metrics.snapshot(),
        io,
        filter_io: io.since(&io_before),
        heap,
        layout,
        spec,
        disk,
        window_pages,
    })
}

/// The row index `paged_stages` planted in a record's payload.
fn tag_of(layout: &RecordLayout, record: &[u8]) -> Result<usize, String> {
    let bytes: [u8; 8] = layout
        .payload_of(record)
        .try_into()
        .map_err(|_| "record payload lost its 8-byte row tag")?;
    Ok(u64::from_le_bytes(bytes) as usize)
}

fn heap_tags(heap: &HeapFile, layout: &RecordLayout) -> Result<Vec<usize>, String> {
    let mut tags = Vec::new();
    let mut scan = heap.scan();
    while let Some(r) = scan.next_record().map_err(err)? {
        tags.push(tag_of(layout, r)?);
    }
    Ok(tags)
}

/// The in-memory path of `plan::execute_query_with`: filter-and-clone
/// the table's rows, then the oriented key matrix and `skyline_auto`
/// per `DIFF` group. `GROUP BY`, `ORDER BY`, `LIMIT` and the result clone
/// are not replayed; they are the class's residual.
fn mem_stages(
    rec: &mut Recorder,
    query_id: u64,
    table: &Table,
    query: &Query,
    input: &SkylineInput,
) -> Vec<(&'static str, f64)> {
    let mut stages = Stages::begin(rec, query_id);
    let rows: Vec<Tuple> = stages.time("relation.rows_clone", || match &query.where_clause {
        Some(pred) => table
            .rows()
            .iter()
            .filter(|r| expr::eval(pred, table.schema(), r))
            .cloned()
            .collect(),
        None => table.rows().to_vec(),
    });
    let survivors = stages.time("core.mem_skyline", || {
        let d = input.crit.len();
        let mut survivors = 0;
        for members in &input.parts {
            let keys = KeyMatrix::new(d, input.keys(members));
            survivors += skyline_auto(&keys).indices.len();
        }
        survivors
    });
    black_box((rows, survivors));
    stages.finish()
}
