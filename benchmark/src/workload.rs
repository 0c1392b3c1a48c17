//! The five workloads: their tables, query classes and schedules.
//!
//! Sizes are chosen against `ServerConfig::default()` (2 workers,
//! 512-page quota, 64 sort pages, external threshold 50 000 rows). Every
//! query of every workload is expected to succeed.

use crate::gen;
use crate::oracle::{evaluate, Expected, QuerySpec};
use skyline_query::catalog::Catalog;
use skyline_relation::Table;

/// The names `--workload` accepts, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "indep_d7",
    "corr_d7",
    "anti_d4",
    "float_d5",
    "mixed_sessions",
];

/// One concrete query of a class, with its reference answer.
pub struct Variant {
    /// The query as data.
    pub spec: QuerySpec,
    /// The SQL text rendered from `spec`.
    pub sql: String,
    /// The oracle's answer.
    pub expected: Expected,
}

/// One kind of query a workload issues.
pub struct QueryClass {
    /// Class label (`heavy`, `light`, `diff`, `dimred`); per-class
    /// latencies are reported under it.
    pub name: &'static str,
    /// Rows in the class's FROM table (the `rows_per_s` numerator).
    pub table_rows: usize,
    /// Per-query page quota override.
    pub quota_pages: Option<usize>,
    /// The queries of this class: the same shape over the same table
    /// under different MIN/MAX assignments. Clients take turns through
    /// them; the replay uses the first. How long a skyline over
    /// independent data takes depends on the few rows near the best
    /// corner, which swings the latency by ±10 % from one seed to the
    /// next; every assignment has its own best corner, so a run that
    /// cycles through several measures the table and not its luckiest
    /// rows.
    pub variants: Vec<Variant>,
}

/// A generated workload, ready to be served.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Closed-loop clients, each with its own session.
    pub clients: usize,
    /// Catalog name and contents of each table.
    pub tables: Vec<(&'static str, Table)>,
    /// The query classes.
    pub classes: Vec<QueryClass>,
    /// One scheduling block, as indices into `classes`. Every client
    /// repeats it (in its own seeded order) until time is up, so the
    /// class shares of a run are exact.
    pub block: Vec<usize>,
}

const MAX: bool = false;
const MIN: bool = true;
const D7: [(&str, bool); 7] = [
    ("a", MAX),
    ("b", MAX),
    ("c", MAX),
    ("d", MAX),
    ("e", MAX),
    ("f", MAX),
    ("g", MAX),
];
const MIXED4: [(&str, bool); 4] = [("a", MIN), ("b", MIN), ("c", MAX), ("d", MAX)];

/// MIN/MAX assignments for the classes over independent data: bit `i`
/// set makes criterion `i` a MIN. All-MAX comes first; it is the one the
/// replay attributes.
const DIRECTIONS: [u8; 8] = [
    0b000_0000, 0b111_1111, 0b010_1010, 0b101_0101, 0b000_1111, 0b111_0000, 0b011_0011, 0b100_1100,
];

/// `SELECT * FROM table SKYLINE OF` the first `d` criteria, once per
/// assignment in `directions`.
fn directed(table: &'static str, d: usize, directions: &[u8]) -> Vec<QuerySpec> {
    directions
        .iter()
        .map(|mask| {
            let crit: Vec<(&str, bool)> = D7[..d]
                .iter()
                .enumerate()
                .map(|(i, &(c, _))| (c, mask >> i & 1 == 1))
                .collect();
            QuerySpec::skyline(table, &crit)
        })
        .collect()
}

/// `float_d5`'s per-query quota: its in-memory key matrix is
/// ⌈100 000 × 5 × 8 / 4096⌉ = 977 pages, which the default 512-page
/// quota refuses (see the README's findings).
/// Standard deviation of `anti_d4`'s plane offset: at 0.025 the skyline is
/// about an eighth of the table (6 382 of 50 000 rows at seed 2003), enough
/// to overflow the estimator-sized window and spill.
const ANTI_PLANE_SD: f64 = 0.025;

const FLOAT_QUOTA_PAGES: usize = 1024;

/// `name` as one of [`NAMES`].
fn known(name: &str) -> Result<&'static str, String> {
    NAMES
        .into_iter()
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {NAMES:?}"))
}

/// Generate workload `name`'s tables from `seed`, as `(catalog name,
/// table)`. `scale` divides every table size (1 for a real run, 10 for
/// `--smoke`).
///
/// # Errors
/// An unknown workload name.
pub fn generate_tables(
    name: &str,
    seed: u64,
    scale: usize,
) -> Result<Vec<(&'static str, Table)>, String> {
    let n = |full: usize| full / scale;
    Ok(match known(name)? {
        "indep_d7" => vec![("t", gen::independent(n(100_000), 7, seed))],
        "corr_d7" => vec![("t", gen::correlated(n(100_000), 7, 0.1, seed))],
        "anti_d4" => vec![("t", gen::anti_correlated(n(50_000), 4, ANTI_PLANE_SD, seed))],
        "float_d5" => vec![("t", gen::independent_float(n(100_000), 5, seed))],
        // mixed_sessions: distinct seeds per table, all derived from the
        // one given
        _ => vec![
            ("small", gen::small_domain(n(10_000), 4, 9_999, 8, seed)),
            (
                "dom",
                gen::small_domain(n(20_000), 4, 9, 8, seed.wrapping_add(1)),
            ),
            ("t", gen::independent(n(100_000), 7, seed.wrapping_add(2))),
        ],
    })
}

/// A catalog owning `tables` — the only thing besides SQL text the
/// program under test receives.
#[must_use]
pub fn catalog_of(tables: Vec<(&'static str, Table)>) -> Catalog {
    let mut cat = Catalog::new();
    for (name, table) in tables {
        cat.register(name, table);
    }
    cat
}

impl Workload {
    /// Generate workload `name` from `seed` and compute the reference
    /// answer of every query it issues.
    ///
    /// # Errors
    /// An unknown workload name.
    pub fn build(name: &str, seed: u64, scale: usize) -> Result<Workload, String> {
        let name = known(name)?;
        let mut w = Workload {
            name,
            clients: 1,
            tables: generate_tables(name, seed, scale)?,
            classes: Vec::new(),
            block: vec![0],
        };
        match name {
            "indep_d7" => {
                w.add("heavy", directed("t", 7, &DIRECTIONS), None);
            }
            "corr_d7" => {
                w.add("heavy", vec![QuerySpec::skyline("t", &D7)], None);
            }
            "anti_d4" => {
                w.add("heavy", vec![QuerySpec::skyline("t", &D7[..4])], None);
            }
            "float_d5" => {
                w.add(
                    "heavy",
                    directed("t", 5, &DIRECTIONS[..4]),
                    Some(FLOAT_QUOTA_PAGES),
                );
            }
            _ => {
                w.clients = 2;
                // 12 light + 3 diff + 2 dimred + 3 heavy = 60/15/10/15 %
                w.block.clear();
                for k in [2_500, 5_000, 7_500, 10_000] {
                    let light = QuerySpec {
                        where_a_lt: Some(k),
                        order_limit: Some(20),
                        ..QuerySpec::skyline("small", &MIXED4)
                    };
                    let c = w.add("light", vec![light], None);
                    w.block.extend([c; 3]);
                }
                let diff = QuerySpec {
                    diff: Some("grp"),
                    ..QuerySpec::skyline("small", &MIXED4)
                };
                let c = w.add("diff", vec![diff], None);
                w.block.extend([c; 3]);
                let dimred = QuerySpec {
                    dimred: true,
                    ..QuerySpec::skyline("dom", &D7[..4])
                };
                let c = w.add("dimred", vec![dimred], None);
                w.block.extend([c; 2]);
                // three to a block, so one assignment each
                let c = w.add("heavy", directed("t", 7, &DIRECTIONS[..3]), None);
                w.block.extend([c; 3]);
            }
        }
        Ok(w)
    }

    /// Register a query class — `specs` are its variants, all over one
    /// already-generated table — and compute the reference answers.
    /// Returns the class index.
    fn add(
        &mut self,
        name: &'static str,
        specs: Vec<QuerySpec>,
        quota_pages: Option<usize>,
    ) -> usize {
        let table = self.table(specs[0].table);
        let variants = specs
            .into_iter()
            .map(|spec| Variant {
                sql: spec.sql(),
                expected: Expected::of(&spec, &evaluate(table, &spec)),
                spec,
            })
            .collect();
        self.classes.push(QueryClass {
            name,
            table_rows: table.len(),
            quota_pages,
            variants,
        });
        self.classes.len() - 1
    }

    /// The table registered under `name`.
    ///
    /// # Panics
    /// When no such table was generated (a bug in this file).
    #[must_use]
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t)
            .unwrap_or_else(|| panic!("workload {} has no table {name}", self.name))
    }

    /// A catalog holding a copy of every table.
    #[must_use]
    pub fn catalog(&self) -> Catalog {
        catalog_of(self.tables.clone())
    }

    /// How many times each class occurs in one block.
    #[must_use]
    pub fn class_weights(&self) -> Vec<usize> {
        let mut w = vec![0; self.classes.len()];
        for &c in &self.block {
            w[c] += 1;
        }
        w
    }
}
