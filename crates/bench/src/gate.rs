//! The counter gate: one run shape, one golden file, one rule.
//!
//! A gate [`Run`] is `{section, config, counters, timings}`. Three
//! workload drivers produce runs — the thread grid in this module
//! ([`run_section`]: the seed-2003 paper workload through the record and
//! the narrow entry format), the strategy × shard matrix
//! ([`crate::shard_gate`]) and the server mix ([`crate::server_gate`]) —
//! and nothing else here knows which workload a run came from.
//!
//! **The rule.** Every integer a run reports is gated by exact equality
//! against the committed [`GOLDEN_FILE`]; every float is written to
//! [`REPORT_FILE`] and never compared. The golden file is sorted lines
//! `<section>/<config>/<counter> <u64>` (checksums are `u64` too), so a
//! counter change is a one-line diff in review. [`compare`] is the only
//! comparator: every fresh key must equal its committed value, and every
//! committed key of a section that ran must be present — sections that
//! did not run (`--smoke` skips `full` and `shard-full`) are ignored.
//! Wall-clock regressions are `BENCHMARK.json`'s job: its bounds are
//! measured from run-to-run spreads, which no constant here could be.
//!
//! **The laws.** Relations *between* runs are checked once, on the fresh
//! numbers, from the one table [`LAWS`] — before the golden file is read,
//! so a run set that breaks a law fails even when it equals the file.
//!
//! The thread-grid runs report every [`MetricsSnapshot`] counter (via
//! [`MetricsSnapshot::counters`], so a counter added to core cannot be
//! left out) plus `critical_path` (`max(worker) + max(merge verifier)`
//! comparisons — the model speedup's denominator), `extra_pages` (filter
//! temp traffic beyond the one input scan), and the skyline's size and
//! order-independent `checksum`. Narrow runs measure `batches`,
//! `rows_materialized` and `bytes_moved` across presort + filter; record
//! runs report the analytic equivalents (the record operators move whole
//! records at every stage).

use crate::harness::Dataset;
use skyline_core::planner::presort_threaded;
use skyline_core::score::SortOrder;
use skyline_core::{
    batch_presort, parallel_batch_filter, parallel_sfs_filter, BatchConfig, KeySumScore,
    MetricsSnapshot, SfsConfig, SkylineMetrics, SkylineSpec,
};
use skyline_exec::NarrowLayout;
use skyline_storage::{read_text, write_text, Disk, HeapFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Workload seed shared by every gate section (the paper's year).
pub const GATE_SEED: u64 = 2003;

/// Pages the presort phase may use (the paper's sort allocation).
pub const SORT_PAGES: usize = 1000;

/// The committed counter baseline, relative to the workspace root.
pub const GOLDEN_FILE: &str = "BENCH_gate.txt";

/// Where the timings of the last gate run land (untracked).
pub const REPORT_FILE: &str = "target/bench_gate_report.txt";

/// One gate run: the unit every driver returns and every check reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload section (`full`, `smoke`, `shard-full`, `shard-smoke`,
    /// `server`).
    pub section: &'static str,
    /// Configuration within the section, `<variant> <point>` for grid
    /// runs (`record t=2`, `grid shards=8`).
    pub config: String,
    /// Deterministic integers — gated exactly.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock floats — reported, never compared.
    pub timings: Vec<(&'static str, f64)>,
}

impl Run {
    /// The value of counter `name`, if this run reports it.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find_map(|(k, v)| (k == name).then_some(*v))
    }

    fn timing(&self, name: &str) -> Option<f64> {
        self.timings
            .iter()
            .find_map(|(k, v)| (*k == name).then_some(*v))
    }

    /// The `<point>` of a `<variant> <point>` config, when `variant` is
    /// this run's.
    fn point_of(&self, variant: &str) -> Option<&str> {
        self.config.strip_prefix(variant)?.strip_prefix(' ')
    }

    /// `(variant, threads)` of a thread-grid config `<variant> t=<k>`.
    fn grid_point(&self) -> Option<(&str, usize)> {
        let (variant, t) = self.config.split_once(" t=")?;
        Some((variant, t.parse().ok()?))
    }
}

/// Owned counter list from statically named pairs.
pub(crate) fn named(pairs: impl IntoIterator<Item = (&'static str, u64)>) -> Vec<(String, u64)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// `available_parallelism`, 1 when unknown.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ------------------------------------------------------------- the laws

/// A relation between the fresh runs of one section.
#[derive(Debug, Clone, Copy)]
pub enum Law {
    /// Every run that reports `skyline` and `checksum` reports the same
    /// pair — formats, thread counts, strategies and shard counts may
    /// change costs, never the answer.
    SameAnswer,
    /// Wherever `lo <point>` ran, `hi <point>` ran too and `lo` is
    /// strictly below it on every listed counter.
    Below {
        /// The variant that must win.
        lo: &'static str,
        /// The variant it must beat.
        hi: &'static str,
        /// The counters it must beat it on.
        counters: &'static [&'static str],
    },
    /// Every `<variant> …` run reports `counter > 0`.
    Positive {
        /// Config variant.
        variant: &'static str,
        /// The counter that must move.
        counter: &'static str,
    },
}

/// The one law table. Laws whose variants a section does not run hold
/// vacuously there.
pub const LAWS: &[Law] = &[
    Law::SameAnswer,
    Law::Below {
        lo: "narrow",
        hi: "record",
        counters: &["rows_materialized", "bytes_moved"],
    },
    Law::Below {
        lo: "grid",
        hi: "naive",
        counters: &["bytes_exchanged", "coordinator_comparisons"],
    },
    Law::Below {
        lo: "representative",
        hi: "naive",
        counters: &["bytes_exchanged", "coordinator_comparisons"],
    },
    Law::Positive {
        variant: "representative",
        counter: "pruned_by_representatives",
    },
];

/// Thread count, model speedup and wall speedup of a thread-grid `run`
/// over its section's and format's `t=1` run; `None` for non-grid runs.
fn speedups<'a>(runs: impl IntoIterator<Item = &'a Run>, run: &Run) -> Option<(usize, f64, f64)> {
    let (variant, t) = run.grid_point()?;
    let base = runs
        .into_iter()
        .find(|r| r.section == run.section && r.grid_point() == Some((variant, 1)))?;
    let model = base.get("comparisons")? as f64 / run.get("critical_path")? as f64;
    let wall = base.timing("filter_ms")? / run.timing("filter_ms")?;
    Some((t, model, wall))
}

impl Law {
    fn check(&self, section: &str, runs: &[&Run], bad: &mut Vec<String>) {
        let answer = |r: &Run| Some((r.get("skyline")?, r.get("checksum")?));
        let show = |v: Option<u64>| v.map_or("(not reported)".to_string(), |v| v.to_string());
        match *self {
            Law::SameAnswer => {
                let mut answers = runs.iter().filter_map(|r| Some((r, answer(r)?)));
                let Some((first, want)) = answers.next() else {
                    return;
                };
                for (r, got) in answers {
                    if got != want {
                        bad.push(format!(
                            "{section}/{}: (skyline, checksum) {got:?} differs from {}'s {want:?}",
                            r.config, first.config
                        ));
                    }
                }
            }
            Law::Below { lo, hi, counters } => {
                for r in runs {
                    let Some(point) = r.point_of(lo) else {
                        continue;
                    };
                    let twin = format!("{hi} {point}");
                    let Some(other) = runs.iter().find(|o| o.config == twin) else {
                        bad.push(format!("{section}/{}: no `{twin}` run to beat", r.config));
                        continue;
                    };
                    for c in counters {
                        match (r.get(c), other.get(c)) {
                            (Some(a), Some(b)) if a < b => {}
                            (a, b) => bad.push(format!(
                                "{section}/{}/{c}: {} is not strictly below `{twin}`'s {}",
                                r.config,
                                show(a),
                                show(b)
                            )),
                        }
                    }
                }
            }
            Law::Positive { variant, counter } => {
                for r in runs.iter().filter(|r| r.point_of(variant).is_some()) {
                    if r.get(counter).unwrap_or(0) == 0 {
                        bad.push(format!("{section}/{}/{counter}: must be > 0", r.config));
                    }
                }
            }
        }
    }
}

/// Check every law of [`LAWS`] on the fresh `runs`, section by section.
/// Returns one line per violation; empty means the laws hold.
pub fn check_laws(runs: &[Run]) -> Vec<String> {
    let sections: BTreeSet<&str> = runs.iter().map(|r| r.section).collect();
    let mut bad = Vec::new();
    for section in sections {
        let of: Vec<&Run> = runs.iter().filter(|r| r.section == section).collect();
        for law in LAWS {
            law.check(section, &of, &mut bad);
        }
    }
    bad
}

// ------------------------------------------------------ the golden file

/// Golden-file contents: `<section>/<config>/<counter>` → value.
pub type Golden = BTreeMap<String, u64>;

/// The golden keys of `runs`.
///
/// # Panics
/// Panics when two runs report the same key — a driver bug that would
/// otherwise silently gate only the last value.
pub fn golden_of(runs: &[Run]) -> Golden {
    let mut out = Golden::new();
    for r in runs {
        for (name, value) in &r.counters {
            let key = format!("{}/{}/{name}", r.section, r.config);
            assert!(
                out.insert(key.clone(), *value).is_none(),
                "duplicate gate key {key}"
            );
        }
    }
    out
}

/// Parse golden-file text: one `<key> <u64>` per line, the value after
/// the last space (configs contain spaces).
///
/// # Errors
/// The number and text of the first line that is not `<key> <u64>`.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut out = Golden::new();
    for (i, line) in text.lines().enumerate() {
        let parsed = line
            .rsplit_once(' ')
            .and_then(|(key, value)| Some((key, value.parse().ok()?)));
        let Some((key, value)) = parsed else {
            return Err(format!("line {}: expected `<key> <u64>`: {line}", i + 1));
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// Render golden-file text, sorted by key.
pub fn render_golden(golden: &Golden) -> String {
    let mut out = String::new();
    for (key, value) in golden {
        let _ = writeln!(out, "{key} {value}");
    }
    out
}

fn section_of(key: &str) -> &str {
    key.split_once('/').map_or(key, |(section, _)| section)
}

/// The one comparator: exact equality, both directions. Every fresh key
/// must be committed with the same value; every committed key of a
/// section the fresh run covered must be in the fresh run. Returns one
/// line per mismatch, naming the key and both values.
pub fn compare(committed: &Golden, fresh: &Golden) -> Vec<String> {
    let ran: BTreeSet<&str> = fresh.keys().map(|k| section_of(k)).collect();
    let mut bad = Vec::new();
    for (key, new) in fresh {
        match committed.get(key) {
            Some(old) if old == new => {}
            Some(old) => bad.push(format!("{key}: committed {old}, fresh {new}")),
            None => bad.push(format!("{key}: not committed, fresh {new}")),
        }
    }
    for (key, old) in committed {
        if ran.contains(section_of(key)) && !fresh.contains_key(key) {
            bad.push(format!(
                "{key}: committed {old}, missing from the fresh run"
            ));
        }
    }
    bad
}

/// The whole gate over one set of fresh `runs`: the laws first, then
/// either (`check`) [`compare`] against the golden file at `golden`, or
/// rewrite it — replacing the keys of the sections that ran and keeping
/// the rest, so a `--smoke` regeneration does not drop `full`.
///
/// Returns the number of counters checked or written.
///
/// # Errors
/// Every violated law, or every mismatched key, one per line; or the
/// I/O / parse failure on the golden file.
pub fn gate(runs: &[Run], golden: &Path, check: bool) -> Result<usize, String> {
    let bad = check_laws(runs);
    if !bad.is_empty() {
        return Err(format!(
            "{} law(s) violated:\n{}",
            bad.len(),
            bad.join("\n")
        ));
    }
    let fresh = golden_of(runs);
    let text = match read_text(golden) {
        Ok(text) => text,
        Err(e) if !check && e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("read {}: {e}", golden.display())),
    };
    let mut committed = parse_golden(&text).map_err(|e| format!("{}: {e}", golden.display()))?;
    let counters = fresh.len();
    if check {
        let bad = compare(&committed, &fresh);
        if bad.is_empty() {
            return Ok(counters);
        }
        return Err(format!(
            "{} counter(s) differ from {}:\n{}\ncounters are deterministic: if the change is \
             deliberate, regenerate with `cargo xtask bench` and review the diff",
            bad.len(),
            golden.display(),
            bad.join("\n")
        ));
    }
    committed.retain(|key, _| runs.iter().all(|r| r.section != section_of(key)));
    committed.extend(fresh);
    write_text(golden, &render_golden(&committed))
        .map_err(|e| format!("write {}: {e}", golden.display()))?;
    Ok(counters)
}

// ----------------------------------------------------------- the report

/// First line of `rustc -V`, `unknown` when it cannot run.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Everything measured and not gated: machine, toolchain, and per run
/// its timings and (thread grid) speedups. A wall speedup at more
/// threads than cores is time-slicing, so it prints as `not measured`.
pub fn report(runs: &[Run], cores: usize) -> String {
    let cpu = read_text(Path::new("/proc/cpuinfo"))
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut out = format!("cores: {cores}\ncpu: {cpu}\nrustc: {}\n", rustc_version());
    for r in runs {
        let _ = write!(out, "{}/{}:", r.section, r.config);
        for (name, value) in &r.timings {
            let _ = write!(out, " {name}={value:.3}");
        }
        if let Some((t, model, wall)) = speedups(runs, r) {
            let _ = write!(out, " speedup_model={model:.3}x speedup_wall=");
            if cores >= t {
                let _ = write!(out, "{wall:.3}x");
            } else {
                let _ = write!(out, "not measured (cores={cores})");
            }
        }
        out.push('\n');
    }
    out
}

// ------------------------------------------------- the thread-grid driver

/// One thread-grid section: a workload size and a thread sweep, run
/// through both entry formats.
#[derive(Debug, Clone, Copy)]
pub struct GateSpec {
    /// Section name.
    pub label: &'static str,
    /// Tuple count.
    pub n: usize,
    /// Skyline dimensions (all-max over the first `d` attributes).
    pub d: usize,
    /// Filter window budget in pages.
    pub window_pages: usize,
    /// Thread counts to sweep, ascending, starting at 1.
    pub threads: &'static [usize],
}

/// The acceptance-criteria grid: d=7, n=100k, entropy presort.
pub const FULL: GateSpec = GateSpec {
    label: "full",
    n: 100_000,
    d: 7,
    window_pages: 64,
    threads: &[1, 2, 4],
};

/// A CI-sized section that finishes in seconds.
pub const SMOKE: GateSpec = GateSpec {
    label: "smoke",
    n: 20_000,
    d: 7,
    window_pages: 16,
    threads: &[1, 2],
};

/// The entry format a grid run sorts and filters.
#[derive(Debug, Clone, Copy)]
enum Format {
    /// Whole records: [`presort_threaded`] + [`parallel_sfs_filter`].
    Record,
    /// Narrow key entries, rows materialized late: [`batch_presort`] +
    /// [`parallel_batch_filter`].
    Narrow,
}

/// FNV-1a 64 over the sorted key rows — identical skylines hash alike
/// regardless of emission order (the parallel merge permutes it).
pub(crate) fn skyline_checksum(mut rows: Vec<Vec<i32>>) -> u64 {
    rows.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in &rows {
        for v in row {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

pub(crate) fn sum(snaps: &[MetricsSnapshot]) -> MetricsSnapshot {
    snaps
        .iter()
        .fold(MetricsSnapshot::default(), |acc, s| acc.plus(s))
}

/// Cardinality and checksum of a skyline heap over its first `d`
/// attributes.
pub(crate) fn answer_of(skyline: &HeapFile, ds: &Dataset, d: usize) -> (u64, u64) {
    let mut rows = Vec::with_capacity(skyline.len() as usize);
    let mut scan = skyline.scan();
    while let Some(r) = scan.next_record().expect("scan skyline") {
        rows.push((0..d).map(|i| ds.layout.attr(r, i)).collect());
    }
    (skyline.len(), skyline_checksum(rows))
}

/// One presort + partitioned-filter measurement at `t` threads, with the
/// exact-aggregation identity (`caller metrics == Σ workers + merge +
/// materialize`) and the zero-leak check asserted. `scalar` swaps in the
/// scalar reference window.
fn grid_run(ds: &Dataset, spec: &GateSpec, format: Format, t: usize, scalar: bool) -> Run {
    let sky_spec = SkylineSpec::max_all(spec.d);
    let disk = Arc::clone(&ds.disk) as Arc<dyn Disk>;
    let base_pages = ds.disk.allocated_pages();
    let presort_metrics = SkylineMetrics::shared();
    let t0 = Instant::now();
    let sorted = match format {
        Format::Record => presort_threaded(
            Arc::clone(&ds.heap),
            ds.layout,
            sky_spec.clone(),
            SortOrder::Entropy,
            Some(ds.entropy(spec.d)),
            SORT_PAGES,
            t,
            Arc::clone(&disk),
        ),
        Format::Narrow => batch_presort(
            Arc::clone(&ds.heap),
            &ds.layout,
            &sky_spec,
            Arc::new(KeySumScore),
            skyline_exec::batch::BATCH_ROWS,
            SORT_PAGES,
            t,
            Arc::clone(&disk),
            Arc::clone(&presort_metrics),
            None,
        ),
    };
    let sorted = Arc::new(sorted.expect("presort"));
    let sort_ms = t0.elapsed().as_secs_f64() * 1e3;
    let input_pages = sorted.num_pages();

    let metrics = SkylineMetrics::shared();
    let io_before = ds.disk.stats().snapshot();
    let t1 = Instant::now();
    // (skyline, per worker, merge, per merge verifier, late materialization)
    let (skyline, workers, merge, verifiers, materialize) = match format {
        Format::Record => {
            let cfg = SfsConfig::new(spec.window_pages);
            let o = parallel_sfs_filter(
                Arc::clone(&sorted),
                ds.layout,
                sky_spec,
                if scalar {
                    cfg.with_scalar_window()
                } else {
                    cfg
                },
                t,
                disk,
                Arc::clone(&metrics),
                None,
                None,
            )
            .expect("parallel record filter");
            let none = MetricsSnapshot::default();
            (
                o.skyline,
                o.worker_metrics,
                o.merge_metrics,
                o.merge_worker_metrics,
                none,
            )
        }
        Format::Narrow => {
            let cfg = BatchConfig::new(spec.window_pages);
            let o = parallel_batch_filter(
                Arc::clone(&sorted),
                Arc::clone(&ds.heap),
                NarrowLayout::new(spec.d),
                if scalar {
                    cfg.with_scalar_window()
                } else {
                    cfg
                },
                t,
                disk,
                Arc::clone(&metrics),
                None,
                None,
            )
            .expect("parallel narrow filter");
            (
                o.skyline,
                o.worker_metrics,
                o.merge_metrics,
                o.merge_worker_metrics,
                o.materialize_metrics,
            )
        }
    };
    let filter_ms = t1.elapsed().as_secs_f64() * 1e3;
    let io = ds.disk.stats().snapshot().since(&io_before);
    let extra_pages = io.writes + io.reads.saturating_sub(input_pages);

    let config = format!(
        "{} t={t}",
        match format {
            Format::Record => "record",
            Format::Narrow => "narrow",
        }
    );
    let agg = metrics.snapshot();
    assert_eq!(
        agg,
        sum(&workers).plus(&merge).plus(&materialize),
        "aggregate metrics must equal Σ workers + merge + materialize ({config})"
    );
    // the slowest worker, then the slowest verifier of the in-memory
    // merge — or the whole sequential winnow when the fallback ran
    let slowest = |snaps: &[MetricsSnapshot]| snaps.iter().map(|m| m.comparisons).max();
    let critical_path =
        slowest(&workers).unwrap_or(0) + slowest(&verifiers).unwrap_or(merge.comparisons);

    let (len, checksum) = answer_of(&skyline, ds, spec.d);
    drop(skyline);
    drop(sorted);
    assert_eq!(
        ds.disk.allocated_pages(),
        base_pages,
        "gate run must not leak pages ({config})"
    );

    let n = spec.n as u64;
    let counters = match format {
        // one input scan plus sort write and read (3n), spill write plus
        // re-read, and emission — all at full record width
        Format::Record => MetricsSnapshot {
            rows_materialized: n + agg.temp_records + agg.emitted,
            bytes_moved: ds.layout.record_size() as u64
                * (3 * n + 2 * agg.temp_records + agg.emitted),
            ..agg
        },
        Format::Narrow => {
            assert_eq!(
                agg.rows_materialized, len,
                "late materialization must touch exactly the skyline rows ({config})"
            );
            agg.plus(&presort_metrics.snapshot())
        }
    };
    Run {
        section: spec.label,
        config,
        counters: named(counters.counters().into_iter().chain([
            ("critical_path", critical_path),
            ("extra_pages", extra_pages),
            ("skyline", len),
            ("checksum", checksum),
        ])),
        timings: vec![("sort_ms", sort_ms), ("filter_ms", filter_ms)],
    }
}

/// Run one thread-grid section: both formats at every thread count.
///
/// # Panics
/// Panics when a pipeline stage fails, a run leaks pages or breaks the
/// exact-aggregation identity, or the scalar reference window disagrees
/// with the block kernel — a wrong answer must not produce a
/// plausible-looking run.
pub fn run_section(spec: &GateSpec) -> Vec<Run> {
    let ds = Dataset::paper(spec.n, GATE_SEED);
    let answer = |r: &Run| (r.get("skyline"), r.get("checksum"));
    let mut runs = Vec::new();
    for format in [Format::Record, Format::Narrow] {
        let first = runs.len();
        for &t in spec.threads {
            runs.push(grid_run(&ds, spec, format, t, false));
        }
        let scalar = grid_run(&ds, spec, format, 1, true);
        assert_eq!(
            answer(&scalar),
            answer(&runs[first]),
            "scalar and block kernels must agree bit-for-bit ({}/{})",
            spec.label,
            scalar.config
        );
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: GateSpec = GateSpec {
        label: "tiny",
        n: 2_000,
        d: 5,
        window_pages: 4,
        threads: &[1, 2],
    };

    fn run(section: &'static str, config: &str, counters: &[(&'static str, u64)]) -> Run {
        Run {
            section,
            config: config.to_string(),
            counters: named(counters.iter().copied()),
            timings: vec![("filter_ms", 1.0)],
        }
    }

    /// A law-abiding miniature of the real run set; the first three runs
    /// are the `--smoke` subset.
    fn healthy() -> Vec<Run> {
        let grid = |rows, bytes| {
            [
                ("comparisons", 900),
                ("critical_path", 500),
                ("rows_materialized", rows),
                ("bytes_moved", bytes),
                ("skyline", 42),
                ("checksum", 7),
            ]
        };
        vec![
            run("smoke", "record t=1", &grid(2_100, 630)),
            run("smoke", "narrow t=1", &grid(42, 400)),
            run("server", "mix", &[("admitted", 50), ("rejected", 10)]),
            run("full", "record t=1", &grid(2_100, 630)),
            run("full", "record t=2", &grid(2_100, 630)),
            run("shard-full", "naive shards=2", &[("bytes_exchanged", 9)]),
        ]
    }

    /// A golden file of `runs` in the temp dir, removed on drop.
    struct TempGolden(std::path::PathBuf);

    fn temp_golden(name: &str, runs: &[Run]) -> TempGolden {
        let file = format!("skyline-gate-{name}-{}.txt", std::process::id());
        let path = std::env::temp_dir().join(file);
        write_text(&path, &render_golden(&golden_of(runs))).expect("write temp golden");
        TempGolden(path)
    }

    impl Drop for TempGolden {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn grid_section_obeys_the_laws_and_the_model() {
        let runs = run_section(&TINY);
        assert_eq!(runs.len(), 4, "two formats × two thread counts");
        assert_eq!(check_laws(&runs), Vec::<String>::new());
        for r in &runs {
            let (_, t) = r.grid_point().expect("grid config");
            let (cmp, path) = (r.get("comparisons"), r.get("critical_path"));
            if t == 1 {
                assert_eq!(cmp, path, "no merge at t=1: critical path == aggregate");
            } else {
                // max worker + merge never exceeds Σ workers + merge
                assert!(path <= cmp && path > Some(0), "{r:?}");
            }
            if r.config.starts_with("narrow") {
                assert!(r.get("batches") > Some(0));
                assert_eq!(r.get("rows_materialized"), r.get("skyline"));
            } else {
                assert_eq!(r.get("batches"), Some(0));
            }
        }
    }

    #[test]
    fn checksum_is_order_independent_and_value_sensitive() {
        let a = skyline_checksum(vec![vec![1, 2], vec![3, 4]]);
        let b = skyline_checksum(vec![vec![3, 4], vec![1, 2]]);
        let c = skyline_checksum(vec![vec![1, 2], vec![3, 5]]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn golden_text_round_trips_and_rejects_garbage() {
        let golden = golden_of(&healthy());
        let text = render_golden(&golden);
        assert!(text.contains("smoke/narrow t=1/rows_materialized 42\n"));
        assert!(text.contains("server/mix/admitted 50\n"));
        assert_eq!(parse_golden(&text).unwrap(), golden);
        let err = parse_golden("smoke/record t=1/comparisons many\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn a_perturbed_counter_fails_the_check_naming_key_and_both_values() {
        let runs = healthy();
        let golden = temp_golden("perturbed", &runs);
        gate(&runs, &golden.0, true).expect("identical runs pass");
        let mut drifted = runs.clone();
        drifted[1].counters[3].1 = 401;
        let err = gate(&drifted, &golden.0, true).unwrap_err();
        assert!(
            err.contains("smoke/narrow t=1/bytes_moved: committed 400, fresh 401"),
            "{err}"
        );
        assert!(err.starts_with("1 counter(s) differ"), "{err}");
    }

    #[test]
    fn missing_keys_fail_in_both_directions() {
        let runs = healthy();
        let golden = temp_golden("missing", &runs);
        // a committed key of a section that ran, absent from the fresh run
        let mut fewer = runs.clone();
        fewer[2].counters.pop();
        let err = gate(&fewer, &golden.0, true).unwrap_err();
        assert!(
            err.contains("server/mix/rejected: committed 10, missing from the fresh run"),
            "{err}"
        );
        // a fresh key absent from the file
        let mut more = runs.clone();
        more[2].counters.push(("completed".into(), 40));
        let err = gate(&more, &golden.0, true).unwrap_err();
        assert!(
            err.contains("server/mix/completed: not committed, fresh 40"),
            "{err}"
        );
    }

    #[test]
    fn smoke_ignores_the_sections_it_does_not_run() {
        let runs = healthy();
        let golden = temp_golden("smoke", &runs);
        let smoke = runs[..3].to_vec();
        gate(&smoke, &golden.0, true).expect("full and shard-full keys are ignored");
        // …and regenerating from the smoke subset keeps them
        let mut moved = smoke.clone();
        moved[2].counters[0].1 = 51;
        gate(&moved, &golden.0, false).expect("regenerate");
        let text = read_text(&golden.0).expect("read back");
        assert!(text.contains("full/record t=1/comparisons 900\n"), "{text}");
        assert!(text.contains("shard-full/naive shards=2/bytes_exchanged 9\n"));
        assert!(text.contains("server/mix/admitted 51\n"), "{text}");
    }

    #[test]
    fn a_broken_law_fails_even_when_the_runs_equal_the_golden_file() {
        let mut runs = healthy();
        // narrow materializes as many rows as record: the format's reason
        // to exist is gone
        runs[1].counters[2].1 = 2_100;
        let golden = temp_golden("law", &runs);
        let err = gate(&runs, &golden.0, true).unwrap_err();
        assert!(err.contains("law(s) violated"), "{err}");
        assert!(
            err.contains(
                "smoke/narrow t=1/rows_materialized: 2100 is not strictly below \
                 `record t=1`'s 2100"
            ),
            "{err}"
        );
    }

    #[test]
    fn each_law_names_its_violation() {
        let law = |runs: &[Run]| check_laws(runs).join("\n");
        // a different answer
        let mut runs = healthy();
        runs[1].counters[5].1 = 8;
        assert!(law(&runs).contains("smoke/narrow t=1: (skyline, checksum) (42, 8)"));
        // a `lo` run without its `hi` twin
        let runs = vec![run("s", "grid shards=2", &[("bytes_exchanged", 1)])];
        assert!(law(&runs).contains("s/grid shards=2: no `naive shards=2` run to beat"));
        // vacuous pruning
        let runs = vec![
            run(
                "s",
                "naive shards=2",
                &[("bytes_exchanged", 9), ("coordinator_comparisons", 9)],
            ),
            run(
                "s",
                "representative shards=2",
                &[("bytes_exchanged", 1), ("coordinator_comparisons", 1)],
            ),
        ];
        assert_eq!(
            law(&runs),
            "s/representative shards=2/pruned_by_representatives: must be > 0"
        );
    }

    #[test]
    fn report_never_prints_a_wall_speedup_it_could_not_measure() {
        let runs = vec![
            run(
                "full",
                "record t=1",
                &[("comparisons", 900), ("critical_path", 900)],
            ),
            run(
                "full",
                "record t=4",
                &[("comparisons", 950), ("critical_path", 450)],
            ),
        ];
        let text = report(&runs, 2);
        assert!(text.starts_with("cores: 2\ncpu: "), "{text}");
        assert!(text.contains("\nrustc: "));
        assert!(
            text.contains(
                "full/record t=4: filter_ms=1.000 speedup_model=2.000x \
                 speedup_wall=not measured (cores=2)"
            ),
            "{text}"
        );
        assert!(report(&runs, 4).contains("speedup_wall=1.000x"));
    }
}
