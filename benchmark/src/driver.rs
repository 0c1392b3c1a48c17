//! The untraced run: closed-loop clients driving SQL through
//! [`SkylineServer`], timed from outside with client-side stopwatches.

use crate::workload::{QueryClass, Variant, Workload};
use skyline_query::catalog::Catalog;
use skyline_relation::{Rng, Tuple};
use skyline_server::{QueryOptions, ServerConfig, Session, SessionStats, SkylineServer};
use std::time::{Duration, Instant};

/// Fewest queries run and discarded before anything is timed.
pub const WARMUP_QUERIES: usize = 5;

/// One timed query as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's classes.
    pub class: usize,
    /// `submit_with` call → handle returned, microseconds.
    pub submit_us: f64,
    /// `submit_with` call → first `next_batch()` rows, milliseconds (the
    /// terminal `End` for an empty result).
    pub first_batch_ms: f64,
    /// `submit_with` call → terminal `End`, milliseconds.
    pub total_ms: f64,
    /// Admitted, completed and equal to the oracle's answer.
    pub ok: bool,
}

/// Everything the timed phase observed.
pub struct ServerRun {
    /// Every timed query, all clients.
    pub samples: Vec<Sample>,
    /// Σ over clients of (rows in the FROM tables of the client's timed
    /// queries ÷ the client's own wall clock). Clients finish the block
    /// they are in, so they stop at different times; summing their rates
    /// keeps the last one's lonely tail out of the throughput.
    pub rows_per_s: f64,
    /// The timed sessions' counters, summed.
    pub stats: SessionStats,
}

/// The configuration every workload is served under: the server's own
/// defaults, with the external threshold scaled along with the tables in
/// a smoke run so the same engine paths are taken.
#[must_use]
pub fn server_config(scale: usize) -> ServerConfig {
    let cfg = ServerConfig::default();
    ServerConfig {
        external_threshold: cfg.external_threshold / scale,
        ..cfg
    }
}

/// Submit one query and drain its stream.
fn run_query(session: &Session, class_idx: usize, class: &QueryClass, query: &Variant) -> Sample {
    let mut opts = QueryOptions::default();
    if let Some(pages) = class.quota_pages {
        opts = opts.with_quota_pages(pages);
    }
    let t0 = Instant::now();
    let handle = session.submit_with(&query.sql, &opts);
    let submit = t0.elapsed();
    let mut rows: Vec<Tuple> = Vec::new();
    let mut first_batch = None;
    let mut completed = false;
    match handle {
        Ok(mut handle) => loop {
            match handle.next_batch() {
                Some(Ok(mut batch)) => {
                    first_batch.get_or_insert_with(|| t0.elapsed());
                    rows.append(&mut batch);
                }
                Some(Err(e)) => {
                    eprintln!("query failed: {e}: {}", query.sql);
                    break;
                }
                None => {
                    completed = true;
                    break;
                }
            }
        },
        Err(e) => eprintln!("query refused: {e}: {}", query.sql),
    }
    let total = t0.elapsed();
    let ok = completed && query.expected.matches(&rows);
    if completed && !ok {
        eprintln!(
            "wrong answer: {} rows, expected {}: {}",
            rows.len(),
            query.expected.rows,
            query.sql
        );
    }
    Sample {
        class: class_idx,
        submit_us: submit.as_secs_f64() * 1e6,
        first_batch_ms: first_batch.unwrap_or(total).as_secs_f64() * 1e3,
        total_ms: total.as_secs_f64() * 1e3,
        ok,
    }
}

/// Hands out a class's variants in turn.
struct Turns(Vec<usize>);

impl Turns {
    /// Every class starts at variant `first` (modulo its count), so two
    /// clients do not march through the variants in step.
    fn new(w: &Workload, first: usize) -> Self {
        Turns(vec![first; w.classes.len()])
    }

    fn next<'w>(&mut self, w: &'w Workload, class: usize) -> &'w Variant {
        let variants = &w.classes[class].variants;
        let turn = self.0[class];
        self.0[class] += 1;
        &variants[turn % variants.len()]
    }
}

/// Start a server over `catalog` and warm it up: every class once, then
/// round again until [`WARMUP_QUERIES`] queries have run, checked but not
/// timed.
///
/// # Errors
/// A warm-up query that fails or returns a wrong answer.
pub fn start_server(w: &Workload, catalog: Catalog, scale: usize) -> Result<SkylineServer, String> {
    let server = SkylineServer::new(catalog, server_config(scale));
    let session = server.session();
    let classes = w.classes.len();
    let mut turns = Turns::new(w, 0);
    for c in (0..classes).cycle().take(classes.max(WARMUP_QUERIES)) {
        let query = turns.next(w, c);
        if !run_query(&session, c, &w.classes[c], query).ok {
            return Err(format!("warm-up query failed: {}", query.sql));
        }
    }
    Ok(server)
}

/// Run the workload's clients against `server` for `duration`. Each
/// client owns a session and repeats the scheduling block, shuffled by
/// its own stream of `seed`, until the time is up; a block that has
/// begun is finished, so every class keeps its exact share.
#[must_use]
pub fn run_clients(
    server: &SkylineServer,
    w: &Workload,
    seed: u64,
    duration: Duration,
) -> ServerRun {
    let start = Instant::now();
    let per_client: Vec<(Vec<Sample>, SessionStats, f64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..w.clients)
            .map(|client| {
                let session = server.session();
                scope.spawn(move || {
                    let mut rng = Rng::seed_from_u64(seed ^ (0xC11E_0000 + client as u64));
                    let mut order = w.block.clone();
                    let mut turns = Turns::new(w, client);
                    let mut samples = Vec::new();
                    while start.elapsed() < duration {
                        rng.shuffle(&mut order);
                        for &c in &order {
                            let query = turns.next(w, c);
                            samples.push(run_query(&session, c, &w.classes[c], query));
                        }
                    }
                    (samples, session.stats(), start.elapsed().as_secs_f64())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = ServerRun {
        samples: Vec::new(),
        rows_per_s: 0.0,
        stats: SessionStats::default(),
    };
    for (samples, stats, wall_s) in per_client {
        let rows: usize = samples.iter().map(|s| w.classes[s.class].table_rows).sum();
        run.rows_per_s += rows as f64 / wall_s;
        run.samples.extend(samples);
        run.stats.absorb(&stats);
    }
    run
}

/// Stop the server and check its books: every session conserved, no
/// query shed, and the page ledger drained. The ledger is read after the
/// workers are joined because a worker returns its page charge only
/// after it has published the query's terminal message.
///
/// # Errors
/// The first broken invariant.
pub fn check_books(server: &SkylineServer) -> Result<(), String> {
    server.shutdown();
    let totals = server.snapshot().totals;
    if !totals.conserved() {
        return Err(format!("session counters not conserved: {totals:?}"));
    }
    if totals.rejected != 0 {
        return Err(format!("{} queries were shed", totals.rejected));
    }
    if totals.in_flight != 0 {
        return Err(format!("{} queries still in flight", totals.in_flight));
    }
    if server.inflight_pages() != 0 {
        return Err(format!(
            "{} pages still charged to the ledger",
            server.inflight_pages()
        ));
    }
    Ok(())
}
