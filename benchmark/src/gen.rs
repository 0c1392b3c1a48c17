//! Benchmark-owned table generators. Every table is a pure function of
//! its arguments; the program under test sees only the finished
//! [`Table`]s and SQL text.
//!
//! Criteria columns are named `a`, `b`, … in order and every table ends
//! with a unique `id` column, which the result check hashes.

use skyline_relation::{ColumnType, Rng, Schema, Table, Tuple, Value};

const CRIT_NAMES: [&str; 7] = ["a", "b", "c", "d", "e", "f", "g"];

/// Symmetric ±MAXINT, the paper's §5 attribute domain.
const MAXINT: i64 = i32::MAX as i64;

fn schema(d: usize, ty: ColumnType, extra: &[&str]) -> Schema {
    let mut cols: Vec<(&str, ColumnType)> = CRIT_NAMES[..d].iter().map(|&c| (c, ty)).collect();
    cols.extend(extra.iter().map(|&c| (c, ColumnType::Int)));
    Schema::of(&cols)
}

fn table(schema: Schema, rows: Vec<Tuple>) -> Table {
    Table::new(schema, rows).expect("generated rows match their schema")
}

/// Map a unit-interval coordinate onto the integers of `[lo, hi]`.
fn to_domain(x: f64, lo: i64, hi: i64) -> i64 {
    let width = (hi - lo) as f64 + 1.0;
    (lo + (x.clamp(0.0, 1.0) * width) as i64).min(hi)
}

/// `n` rows of `d` `Int` criteria, uniform and pairwise independent over
/// ±MAXINT (paper §5), plus `id`.
#[must_use]
pub fn independent(n: usize, d: usize, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|id| {
            let mut v: Vec<Value> = (0..d)
                .map(|_| Value::Int(rng.i64_inclusive(-MAXINT, MAXINT)))
                .collect();
            v.push(Value::Int(id as i64));
            Tuple::new(v)
        })
        .collect();
    table(schema(d, ColumnType::Int, &["id"]), rows)
}

/// `n` rows whose `d` `Int` criteria all sit within `jitter` (relative)
/// of one per-row base value: being good in one dimension means being
/// good in all, so the skyline is a handful of rows.
#[must_use]
pub fn correlated(n: usize, d: usize, jitter: f64, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|id| {
            let base = rng.f64();
            let mut v: Vec<Value> = (0..d)
                .map(|_| {
                    let x = base + jitter * (rng.f64() - 0.5);
                    Value::Int(to_domain(x, -MAXINT, MAXINT))
                })
                .collect();
            v.push(Value::Int(id as i64));
            Tuple::new(v)
        })
        .collect();
    table(schema(d, ColumnType::Int, &["id"]), rows)
}

/// Standard normal deviate (Box–Muller; one of the pair is discarded so
/// the stream position stays a function of the call count alone).
fn normal(rng: &mut Rng) -> f64 {
    let u1 = 1.0 - rng.f64(); // (0, 1]
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `n` rows of `d` `Int` criteria in `0..=1_000_000`, anti-correlated
/// the way the skyline literature generates them (Börzsönyi et al.):
/// pick a plane `Σxᵢ = d·v` with `v ~ N(0.5, plane_sd)`, draw `d` uniforms,
/// shift them so their mean is `v`, and reject the point if a coordinate
/// leaves `[0, 1)`. Being good in one dimension means being bad in the
/// others, so the skyline is a large share of the table.
///
/// `skyline_relation::gen`'s `AntiCorrelated` is not used: over the full
/// i32 domain it clamps most points onto the domain edge and the skyline
/// collapses to a few dozen rows.
#[must_use]
pub fn anti_correlated(n: usize, d: usize, plane_sd: f64, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut x = vec![0.0f64; d];
    while rows.len() < n {
        let v = 0.5 + plane_sd * normal(&mut rng);
        for xi in &mut x {
            *xi = rng.f64();
        }
        let shift = v - x.iter().sum::<f64>() / d as f64;
        if x.iter().any(|xi| !(0.0..1.0).contains(&(xi + shift))) {
            continue;
        }
        let mut vals: Vec<Value> = x
            .iter()
            .map(|xi| Value::Int(to_domain(xi + shift, 0, 1_000_000)))
            .collect();
        vals.push(Value::Int(rows.len() as i64));
        rows.push(Tuple::new(vals));
    }
    table(schema(d, ColumnType::Int, &["id"]), rows)
}

/// [`independent`]'s distribution stored as `Float` columns with a
/// fractional part: what every real-valued table looks like to the
/// engine.
#[must_use]
pub fn independent_float(n: usize, d: usize, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|id| {
            let mut v: Vec<Value> = (0..d)
                .map(|_| Value::Float(rng.i64_inclusive(-MAXINT, MAXINT - 1) as f64 + 0.5))
                .collect();
            v.push(Value::Int(id as i64));
            Tuple::new(v)
        })
        .collect();
    table(schema(d, ColumnType::Float, &["id"]), rows)
}

/// `n` rows of `d` `Int` criteria uniform over `0..=hi`, plus `grp`
/// uniform over `0..groups` and `id`.
#[must_use]
pub fn small_domain(n: usize, d: usize, hi: i64, groups: i64, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|id| {
            let mut v: Vec<Value> = (0..d)
                .map(|_| Value::Int(rng.i64_inclusive(0, hi)))
                .collect();
            v.push(Value::Int(rng.i64_inclusive(0, groups - 1)));
            v.push(Value::Int(id as i64));
            Tuple::new(v)
        })
        .collect();
    table(schema(d, ColumnType::Int, &["grp", "id"]), rows)
}
