//! Comparing two result files: for every workload × end-to-end metric,
//! each side's median and quartiles against the bound `BENCHMARK.json`
//! fixes for that metric.

use crate::json::{parse, Json};
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
///
/// # Errors
/// Text that is not JSON or lacks the expected members.
pub fn bounds_of(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|item| {
            let field = |k: &str| item.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `workload → metric → values` of the untraced runs in a result file
/// (one JSON object per line, as `e2e --out` appends them).
///
/// # Errors
/// A line that is not a result object.
pub fn runs_of(result_lines: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (no, line) in result_lines.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let missing = |k: &str| format!("line {}: no {k}", no + 1);
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("workload"))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| missing("metrics"))?;
        let per_metric = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| missing("metric value"))?;
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(out)
}

/// How one workload × metric pairing came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every candidate run reads better than every baseline run.
    Better,
    /// Worse than the baseline's median by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so neither can be said.
    Unresolved,
    /// Fewer than two runs on a side.
    TooFewRuns,
}

/// One row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline `[q1, median, q3]`.
    pub base: [f64; 3],
    /// Candidate `[q1, median, q3]`.
    pub cand: [f64; 3],
    /// The wider of the two interquartile ranges, as a share of the
    /// baseline's median.
    pub spread: f64,
    /// How much worse the candidate's median is, as a share of the
    /// baseline's (negative when it is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Judge one workload × metric pairing from its raw values.
#[must_use]
pub fn judge(workload: &str, base: &[f64], cand: &[f64], b: &Bound) -> Row {
    let mut row = Row {
        workload: workload.to_string(),
        metric: b.name.clone(),
        base: [0.0; 3],
        cand: [0.0; 3],
        spread: 0.0,
        worse_by: 0.0,
        bound: b.bound,
        verdict: Verdict::TooFewRuns,
    };
    let (Some(qb), Some(qc)) = (quartiles(base), quartiles(cand)) else {
        return row;
    };
    let sign = if b.higher_is_better { -1.0 } else { 1.0 };
    row.base = qb;
    row.cand = qc;
    row.spread = (qb[2] - qb[0]).max(qc[2] - qc[0]) / qb[1].abs();
    row.worse_by = sign * (qc[1] - qb[1]) / qb[1].abs();
    let all_better = cand
        .iter()
        .all(|c| base.iter().all(|x| sign * (c - x) < 0.0));
    row.verdict = if all_better {
        Verdict::Better
    } else if row.spread > b.bound {
        Verdict::Unresolved
    } else if row.worse_by > b.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    row
}

/// Compare two result files under `bounds`.
///
/// # Errors
/// Unparsable input.
pub fn compare(baseline: &str, candidate: &str, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let (base, cand) = (runs_of(baseline)?, runs_of(candidate)?);
    let empty = Vec::new();
    let mut rows = Vec::new();
    for (workload, base_metrics) in &base {
        for b in bounds {
            let bv = base_metrics.get(&b.name).unwrap_or(&empty);
            let cv = cand
                .get(workload)
                .and_then(|m| m.get(&b.name))
                .unwrap_or(&empty);
            rows.push(judge(workload, bv, cv, b));
        }
    }
    Ok(rows)
}

/// The report as an aligned text table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<19} {:>36} {:>36} {:>8} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "baseline q1/median/q3",
        "candidate q1/median/q3",
        "spread",
        "worse",
        "bound",
        "verdict"
    );
    for r in rows {
        let q = |v: [f64; 3]| format!("{:.4}/{:.4}/{:.4}", v[0], v[1], v[2]);
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::TooFewRuns => "too few runs",
        };
        out.push_str(&format!(
            "{:<15} {:<19} {:>36} {:>36} {:>7.1}% {:>+7.1}% {:>5.0}%  {verdict}\n",
            r.workload,
            r.metric,
            q(r.base),
            q(r.cand),
            r.spread * 100.0,
            r.worse_by * 100.0,
            r.bound * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let judge_v = |cand: &[f64], higher| judge("w", &base, cand, &bound(higher)).verdict;
        // latency-like: lower is better
        assert_eq!(
            judge_v(&[100.0, 102.0, 98.0, 101.0, 99.0], false),
            Verdict::Ok
        );
        assert_eq!(
            judge_v(&[120.0, 121.0, 119.0, 120.0, 122.0], false),
            Verdict::Regressed
        );
        assert_eq!(
            judge_v(&[80.0, 81.0, 79.0, 80.0, 82.0], false),
            Verdict::Better
        );
        // the same numbers on a throughput-like metric flip
        assert_eq!(
            judge_v(&[120.0, 121.0, 119.0, 120.0, 122.0], true),
            Verdict::Better
        );
        assert_eq!(
            judge_v(&[80.0, 81.0, 79.0, 80.0, 82.0], true),
            Verdict::Regressed
        );
        // a candidate that swings by more than the bound settles nothing
        assert_eq!(
            judge_v(&[70.0, 130.0, 100.0, 85.0, 115.0], false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge("w", &[1.0], &[1.0, 2.0], &bound(false)).verdict,
            Verdict::TooFewRuns
        );
    }

    #[test]
    fn reads_result_lines_and_bounds() {
        let bounds = bounds_of(
            r#"{"end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, vec![bound(false)]);
        let line = |trace: u8, v: f64| {
            format!(
                "{{\"workload\": \"w\", \"trace\": {trace}, \"metrics\": {{\"m\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}\n"
            )
        };
        let base = line(0, 100.0) + &line(0, 102.0) + &line(1, 5.0);
        let cand = line(0, 130.0) + &line(0, 131.0);
        let rows = compare(&base, &cand, &bounds).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].base[1], 101.0, "traced lines are skipped");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(render(&rows).contains("REGRESSED"));
    }
}
