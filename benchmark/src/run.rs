//! One benchmark run from set-up to result.

use crate::driver::{self, ServerRun};
use crate::env;
use crate::metrics::{self, Metric};
use crate::replay::Replay;
use crate::stats::p50;
use crate::workload::{catalog_of, generate_tables, Workload};
use skyline_server::SkylineServer;
use std::time::{Duration, Instant};

/// Fewest and most set-ups timed per untraced run; `setup_s` is their
/// median. Past the fewest, set-ups repeat until [`SETUP_BUDGET`] is
/// spent, so a set-up of a quarter of a second is timed seven times and
/// one of a second three times.
pub const SETUP_REPS: (usize, usize) = (3, 7);

/// Time an untraced run spends on repeating its set-up.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Share of a traced run's time spent driving the server; the replay
/// gets the rest.
pub const SERVER_SHARE: f64 = 0.7;

/// Fewest replay iterations a traced run reports from.
pub const MIN_REPLAY_ITERATIONS: u64 = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed of the tables and the client schedules.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics from a shorter server phase plus the traced replay.
    pub trace: bool,
    /// Divisor of every table size and of the external threshold (1, or
    /// 10 for a smoke run).
    pub scale: usize,
}

/// What a run found.
pub struct RunResult {
    /// Clients that drove the server.
    pub clients: usize,
    /// Every timed query returned the oracle's answer and the server's
    /// books balanced.
    pub correct: bool,
    /// Queries attempted in the timed phases.
    pub attempted: u64,
    /// Of those, refused, errored or wrong.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The replay's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

/// Everything `setup_s` covers, once: generate the tables from the
/// seed, build the catalog, start a server over it and warm it up. The
/// reference answers in `w` are not part of it — they are the
/// benchmark's work, not the program's, and are computed once per run.
fn set_up(cfg: &RunConfig, w: &Workload) -> Result<SkylineServer, String> {
    let tables = generate_tables(&cfg.workload, cfg.seed, cfg.scale)?;
    driver::start_server(w, catalog_of(tables), cfg.scale)
}

/// Drive `server` for `duration`, then stop it and check its books.
/// Returns the run, its failed-query count and whether all is correct.
fn serve(
    server: &SkylineServer,
    w: &Workload,
    seed: u64,
    duration: Duration,
) -> (ServerRun, u64, bool) {
    let run = driver::run_clients(server, w, seed, duration);
    let books = driver::check_books(server);
    if let Err(e) = &books {
        eprintln!("{e}");
    }
    let failed = run.samples.iter().filter(|s| !s.ok).count() as u64;
    (run, failed, failed == 0 && books.is_ok())
}

/// Run the benchmark once.
///
/// # Errors
/// An unknown workload, a failed warm-up, a replay that disagrees with
/// the SQL path, or a metric that is not a finite number. Failed timed
/// queries are not an error here: they are counted in the result.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let duration = Duration::from_secs_f64(cfg.seconds);
    let mut w = Workload::build(&cfg.workload, cfg.seed, cfg.scale)?;
    if !cfg.trace {
        // only the replay reads the tables again; an untraced run holds
        // the one copy in the server's catalog
        w.tables = Vec::new();
        // several set-ups, so that `setup_s` is a median; the last one
        // is the server that gets measured
        let (least, most) = if cfg.scale == 1 { SETUP_REPS } else { (1, 1) };
        let mut setup_s = Vec::with_capacity(most);
        let server = loop {
            let t = Instant::now();
            let server = set_up(cfg, &w)?;
            setup_s.push(t.elapsed().as_secs_f64());
            let spent: f64 = setup_s.iter().sum();
            if setup_s.len() >= most
                || (setup_s.len() >= least && spent >= SETUP_BUDGET.as_secs_f64())
            {
                break server;
            }
        };
        let (run, failed, correct) = serve(&server, &w, cfg.seed, duration);
        return finish(RunResult {
            clients: w.clients,
            correct,
            attempted: run.samples.len() as u64,
            failed,
            metrics: metrics::end_to_end(&run, p50(&setup_s)),
            spans_json: None,
        });
    }

    // most of the time goes to the server phase, whose tail percentile
    // needs the samples; a replay iteration repeats exactly, so a few do
    let server = set_up(cfg, &w)?;
    let started = Instant::now();
    let ((run, failed, correct), mean_rss_kb) =
        env::mean_rss_during(|| serve(&server, &w, cfg.seed, duration.mul_f64(SERVER_SHARE)));
    drop(server);
    // the server phase's high-water mark, before the replay adds its own
    let peak_rss_kb = env::peak_rss_kb();
    let mut replay = Replay::new(&w, driver::server_config(cfg.scale))?;
    while replay.iterations() < MIN_REPLAY_ITERATIONS || started.elapsed() < duration {
        replay.iterate()?;
    }
    finish(RunResult {
        clients: w.clients,
        correct,
        attempted: run.samples.len() as u64 + replay.iterations() * w.classes.len() as u64,
        failed,
        metrics: metrics::per_layer(&w, &run, (mean_rss_kb, peak_rss_kb), &replay.traces),
        spans_json: Some(replay.recorder.to_json()),
    })
}

fn finish(result: RunResult) -> Result<RunResult, String> {
    match result.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is {}", m.name, m.value)),
        None => Ok(result),
    }
}
