//! Compare mode: two sets of result files side by side.
//!
//! For every end-to-end metric on every workload it prints each side's
//! median and quartiles, each side's spread (quartile distance over the
//! median), and whether the second side is worse than the first by more
//! than the metric's bound in `BENCHMARK.json`. The sets agree when no
//! metric is worse by more than its bound and every spread but
//! `setup_s`'s stays within the bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{parse, Value};
use crate::stats::quartiles;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the first side's median the second may be worse by.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text)?;
    let items = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no end_to_end list")?;
    items
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Metric values per workload per metric, across runs.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Adds one result document (`{"provenance": …, "result": …}`) of an
/// untraced run to `into`; traced runs are skipped.
pub fn add_result(into: &mut Samples, doc: &Value) {
    let prov = doc.get("provenance");
    if prov.and_then(|p| p.get("trace")) != Some(&Value::Bool(false)) {
        return;
    }
    let Some(workload) = prov.and_then(|p| p.get("workload")).and_then(Value::as_str) else {
        return;
    };
    let metrics = doc
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Value::as_obj)
        .unwrap_or(&[]);
    for (name, m) in metrics {
        if let Some(v) = m.get("value").and_then(Value::as_f64) {
            into.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(v);
        }
    }
}

/// Reads every `*.json` result file under `dir` (recursively).
///
/// # Errors
///
/// Unreadable directories or malformed files.
pub fn load_results(dir: &Path) -> Result<Samples, String> {
    let mut out = Samples::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "json") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                add_result(
                    &mut out,
                    &parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
                );
            }
        }
    }
    Ok(out)
}

/// Quartile distance over the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(values);
    if m != 0.0 {
        (q3 - q1) / m.abs()
    } else {
        0.0
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when better).
pub fn worse_by(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    if ma == 0.0 {
        return if mb == ma { 0.0 } else { f64::INFINITY };
    }
    let delta = if lower_is_better { mb - ma } else { ma - mb };
    delta / ma.abs()
}

/// Prints the comparison table and returns whether the sets agree.
pub fn report(bounds: &[Bound], a: &Samples, b: &Samples) -> bool {
    let mut agree = true;
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    println!(
        "{:<16} {:<16} {:>30} {:>30} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "spreadA",
        "spreadB",
        "worse",
        "bound"
    );
    for w in workloads {
        for bound in bounds {
            let va = a
                .get(w)
                .and_then(|m| m.get(&bound.name))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let vb = b
                .get(w)
                .and_then(|m| m.get(&bound.name))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {:<16} missing on one side", bound.name);
                agree = false;
                continue;
            }
            let fmt = |v: &[f64]| {
                let (q1, m, q3) = quartiles(v);
                format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
            };
            let (sa, sb, worse) = (
                spread(va),
                spread(vb),
                worse_by(va, vb, bound.lower_is_better),
            );
            let spread_ok = bound.name == "setup_s" || (sa <= bound.bound && sb <= bound.bound);
            let ok = worse <= bound.bound && spread_ok;
            agree &= ok;
            println!(
                "{w:<16} {:<16} {:>30} {:>30} {sa:>8.4} {sb:>8.4} {worse:>8.4} {:>6.2}  {}",
                bound.name,
                fmt(va),
                fmt(vb),
                bound.bound,
                if ok {
                    "agree"
                } else if !spread_ok {
                    "SPREAD"
                } else {
                    "WORSE"
                }
            );
        }
    }
    println!(
        "verdict: {}",
        if agree {
            "the two sets agree within the bounds"
        } else {
            "the two sets DISAGREE"
        }
    );
    agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(&[10.0, 10.0], &[11.0, 11.0], true) - 0.1).abs() < 1e-12);
        assert!((worse_by(&[10.0, 10.0], &[9.0, 9.0], false) - 0.1).abs() < 1e-12);
        assert!(worse_by(&[10.0, 10.0], &[9.0, 9.0], true) < 0.0);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn only_untraced_results_are_compared() {
        let doc = |trace: bool, v: f64| {
            Value::obj()
                .with(
                    "provenance",
                    Value::obj().with("workload", "w").with("trace", trace),
                )
                .with(
                    "result",
                    Value::obj().with(
                        "metrics",
                        Value::obj().with("m", Value::obj().with("value", v).with("unit", "ms")),
                    ),
                )
        };
        let mut s = Samples::new();
        add_result(&mut s, &doc(false, 1.0));
        add_result(&mut s, &doc(true, 9.0));
        add_result(&mut s, &doc(false, 2.0));
        assert_eq!(s["w"]["m"], vec![1.0, 2.0]);
    }
}
