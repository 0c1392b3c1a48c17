//! The benchmark checking itself: its oracle against the engine's own
//! naive algorithm, its generators, its manifest, and one small run of
//! every workload in both modes.

use skyline_benchmark::json::{parse, Json};
use skyline_benchmark::oracle::{self, QuerySpec};
use skyline_benchmark::run::{run, RunConfig};
use skyline_benchmark::workload::{Workload, NAMES};
use skyline_benchmark::{gen, metrics};
use skyline_core::{algo, KeyMatrix};
use skyline_relation::Rng;

/// Random `n × d` oriented keys over a domain of `values` integers, so
/// that small domains produce ties and duplicate rows.
fn random_keys(rng: &mut Rng, n: usize, d: usize, values: i64) -> Vec<f64> {
    (0..n * d)
        .map(|_| rng.i64_inclusive(0, values - 1) as f64)
        .collect()
}

#[test]
fn oracle_agrees_with_the_engines_naive_skyline() {
    let mut rng = Rng::seed_from_u64(11);
    for case in 0..200 {
        let n = 1 + rng.usize_below(60);
        let d = 1 + rng.usize_below(5);
        // every other case draws from three values: mostly ties
        let values = if case % 2 == 0 { 3 } else { 1_000 };
        let mut keys = random_keys(&mut rng, n, d, values);
        // MIN criteria are negated columns; mix them in
        for row in keys.chunks_exact_mut(d) {
            for (col, v) in row.iter_mut().enumerate() {
                if (case >> col) & 1 == 1 {
                    *v = -*v;
                }
            }
        }
        let mut want = algo::naive(&KeyMatrix::new(d, keys.clone())).indices;
        want.sort_unstable();
        assert_eq!(oracle::skyline(&keys, d), want, "case {case}: n={n} d={d}");
    }
}

#[test]
fn oracle_keeps_duplicates_and_drops_dominated_rows() {
    // rows 0 and 2 are equal and undominated; row 1 loses to both
    let keys = [5.0, 5.0, 4.0, 5.0, 5.0, 5.0, 9.0, 0.0];
    assert_eq!(oracle::skyline(&keys, 2), vec![0, 2, 3]);
    assert_eq!(oracle::skyline(&[], 3), Vec::<usize>::new());
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    for seed in [2003, 7] {
        assert_eq!(
            gen::independent(500, 7, seed),
            gen::independent(500, 7, seed)
        );
        assert_eq!(
            gen::correlated(500, 7, 0.1, seed),
            gen::correlated(500, 7, 0.1, seed)
        );
        assert_eq!(
            gen::anti_correlated(500, 4, 0.025, seed),
            gen::anti_correlated(500, 4, 0.025, seed)
        );
        assert_eq!(
            gen::independent_float(500, 5, seed),
            gen::independent_float(500, 5, seed)
        );
        assert_eq!(
            gen::small_domain(500, 4, 9, 8, seed),
            gen::small_domain(500, 4, 9, 8, seed)
        );
    }
    assert_ne!(gen::independent(500, 7, 2003), gen::independent(500, 7, 7));
    // whole workloads too, reference answers included
    let a = Workload::build("mixed_sessions", 5, 50).unwrap();
    let b = Workload::build("mixed_sessions", 5, 50).unwrap();
    assert_eq!(a.tables, b.tables);
    for (x, y) in a.classes.iter().zip(&b.classes) {
        for (p, q) in x.variants.iter().zip(&y.variants) {
            assert_eq!((&p.sql, &p.expected), (&q.sql, &q.expected));
        }
    }
}

#[test]
fn generated_values_stay_in_their_domains() {
    let t = gen::independent_float(200, 5, 1);
    assert!(t
        .rows()
        .iter()
        .all(|r| r.get(0).as_f64().unwrap().fract() != 0.0));
    let t = gen::anti_correlated(2_000, 4, 0.025, 1);
    for r in t.rows() {
        for c in 0..4 {
            assert!((0..=1_000_000).contains(&r.get(c).as_i64().unwrap()));
        }
    }
    let t = gen::correlated(2_000, 7, 0.1, 1);
    let max = i64::from(i32::MAX);
    for r in t.rows() {
        for c in 0..7 {
            assert!((-max..=max).contains(&r.get(c).as_i64().unwrap()));
        }
    }
}

#[test]
fn hyperplane_generator_yields_a_large_skyline() {
    let w = Workload::build("anti_d4", 2003, 1).unwrap();
    let n = w.classes[0].table_rows;
    assert_eq!(n, 50_000);
    for seed in [2003, 7] {
        let w = Workload::build("anti_d4", seed, 1).unwrap();
        let share = w.classes[0].variants[0].expected.rows as f64 / n as f64;
        assert!(
            (0.08..=0.16).contains(&share),
            "seed {seed}: skyline share {share}"
        );
    }
}

#[test]
fn sql_is_rendered_from_the_spec() {
    let spec = QuerySpec {
        where_a_lt: Some(10),
        diff: Some("grp"),
        order_limit: Some(3),
        ..QuerySpec::skyline("small", &[("a", true), ("b", false)])
    };
    assert_eq!(
        spec.sql(),
        "SELECT * FROM small WHERE a < 10 SKYLINE OF a MIN, b MAX, grp DIFF ORDER BY a, id LIMIT 3"
    );
    let spec = QuerySpec {
        dimred: true,
        ..QuerySpec::skyline("dom", &[("a", false), ("b", false), ("c", false)])
    };
    assert_eq!(
        spec.sql(),
        "SELECT a, b, MAX(c) AS c FROM dom GROUP BY a, b SKYLINE OF a MAX, b MAX, c MAX"
    );
}

/// Every workload, both modes, at a tenth of the size: warm-up and timed
/// queries are checked against the oracle, the server's books must
/// balance, and in the traced mode the row, batch and shard replays must
/// each return the SQL path's checksum (`run` fails otherwise).
#[test]
fn every_workload_runs_correct_in_both_modes() {
    for name in NAMES {
        for trace in [false, true] {
            let result = run(&RunConfig {
                workload: name.to_string(),
                seed: 7,
                seconds: 0.2,
                trace,
                scale: 10,
            })
            .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
            assert!(result.correct, "{name} trace={trace}");
            assert_eq!(result.failed, 0);
            assert!(result.attempted >= 1);
            assert_eq!(result.spans_json.is_some(), trace);
            if trace {
                let value = |metric: &str| {
                    result
                        .metrics
                        .iter()
                        .find(|m| m.name == metric)
                        .unwrap_or_else(|| panic!("no metric {metric}"))
                        .value
                };
                // the paged workloads really went through the paged engine
                let paged = name != "float_d5";
                assert_eq!(value("core.passes") >= 1.0, paged, "{name}");
                assert_eq!(
                    value("core.mem_skyline_ms") > 0.0,
                    !paged || name == "mixed_sessions"
                );
                let spans = parse(result.spans_json.as_deref().unwrap()).unwrap();
                assert!(!spans.as_array().unwrap().is_empty());
            }
        }
    }
}

/// `BENCHMARK.json` and the command agree on workload and metric names
/// and units.
#[test]
fn manifest_lists_what_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, NAMES);

    let printed = |trace: bool| -> Vec<(String, String)> {
        run(&RunConfig {
            workload: "corr_d7".into(),
            seed: 1,
            seconds: 0.1,
            trace,
            scale: 20,
        })
        .unwrap()
        .metrics
        .iter()
        .map(|m: &metrics::Metric| (m.name.to_string(), m.unit.to_string()))
        .collect()
    };
    assert_eq!(listed("end_to_end"), printed(false));
    assert_eq!(listed("per_layer"), printed(true));
}
