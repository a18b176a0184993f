//! `perf compare <a.json> <b.json>`: two run sets of the suite, metric by
//! metric and workload by workload, against the bounds `BENCHMARK.json`
//! fixes. With `--baseline <out.json>` the two sets are also summarised
//! (medians, quartiles, counts — no raw samples) into the file that is
//! committed as `perfbench/baseline.json`.

use std::path::Path;

use crate::json::Json;
use crate::measure::median;
use crate::spec::WORKLOADS;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the benchmark's bounds are
/// checked with. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

struct Side {
    median: f64,
    quartiles: Option<[f64; 3]>,
    n: usize,
}

impl Side {
    fn of(mut values: Vec<f64>) -> Option<Side> {
        if values.is_empty() {
            return None;
        }
        Some(Side {
            quartiles: quartiles(&values),
            n: values.len(),
            median: median(&mut values),
        })
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some([q1, _, q3]) if self.median != 0.0 => (q3 - q1) / self.median.abs(),
            _ => 0.0,
        }
    }

    fn json(&self) -> Json {
        let [q1, q3] = match self.quartiles {
            Some([q1, _, q3]) => [Json::Num(q1), Json::Num(q3)],
            None => [Json::Null, Json::Null],
        };
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", q1),
            ("q3", q3),
            ("runs", Json::Num(self.n as f64)),
        ])
    }
}

/// Every value of `section.metric` for `workload` across a set's runs.
fn values_of(set: &Json, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get(section)?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `ok`, `regressed` (the second set's median is worse than the first's
/// by more than the bound) or `unresolved` (either set's own spread is
/// wider than the bound, so the bound cannot tell).
fn verdict(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> (&'static str, f64) {
    let worse_by = if lower_is_better {
        (b.median - a.median) / a.median.abs()
    } else {
        (a.median - b.median) / a.median.abs()
    };
    let word = if a.spread().max(b.spread()) > bound {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    };
    (word, worse_by)
}

/// Returns whether any metric regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut baseline_out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline_out = Some(it.next().ok_or("--baseline needs a path")?),
            other => files.push(other.to_string()),
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        return Err("usage: perf compare <a.json> <b.json> [--baseline <out.json>]".into());
    };
    // Run from the root of the checkout, like the benchmark itself.
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load("BENCHMARK.json")?);

    let mut regressed = false;
    let mut summary = Vec::new();
    println!(
        "{:<16} {:<28} {:>6} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "a median", "b median", "b/a", "spread", "bound"
    );
    for workload in WORKLOADS {
        let mut end_to_end = Vec::new();
        for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let sides = (
                Side::of(values_of(&a, workload, "end_to_end", name)),
                Side::of(values_of(&b, workload, "end_to_end", name)),
            );
            let (Some(sa), Some(sb)) = sides else {
                return Err(format!("{workload}/{name} is missing from a run set"));
            };
            let (word, _) = verdict(&sa, &sb, lower, bound);
            regressed |= word == "regressed";
            println!(
                "{workload:<16} {name:<28} {unit:>6} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {bound:>6.2}  {word}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.spread().max(sb.spread()),
            );
            end_to_end.push((
                name,
                Json::obj([
                    ("unit", Json::Str(unit.to_string())),
                    ("a", sa.json()),
                    ("b", sb.json()),
                    ("b_over_a", Json::Num(sb.median / sa.median)),
                    ("verdict", Json::Str(word.to_string())),
                ]),
            ));
        }
        // Per-layer metrics have no bound: both sets pooled into one
        // median, for reading next to the end-to-end rows.
        let mut per_layer = Vec::new();
        for m in spec.get("per_layer").map(Json::as_arr).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let mut values = values_of(&a, workload, "per_layer", name);
            values.extend(values_of(&b, workload, "per_layer", name));
            if let Some(side) = Side::of(values) {
                per_layer.push((name, side.json()));
            }
        }
        // Ops in the untraced window: the samples behind the latencies.
        let samples = [&a, &b].into_iter().flat_map(|set| {
            set.get("runs")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|run| {
                    run.get("workloads")?
                        .get(workload)?
                        .get("attempted")?
                        .as_f64()
                })
        });
        let samples = Side::of(samples.collect()).map_or(Json::Null, |s| s.json());
        summary.push((
            workload,
            Json::obj([
                ("samples", samples),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    if let Some(path) = baseline_out {
        let doc = Json::obj([
            ("seconds", a.get("seconds").cloned().unwrap_or(Json::Null)),
            ("nproc", a.get("nproc").cloned().unwrap_or(Json::Null)),
            ("workloads", Json::obj(summary)),
        ]);
        std::fs::write(Path::new(path), doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3., 1.]).unwrap(), [0.5, 2.0, 3.5]);
        assert!(quartiles(&[1.]).is_none());
    }

    fn side(values: &[f64]) -> Side {
        Side::of(values.to_vec()).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = side(&[100., 101., 99., 100.]);
        assert_eq!(
            verdict(&steady, &side(&[104., 105., 103.]), true, 0.1).0,
            "ok"
        );
        assert_eq!(
            verdict(&steady, &side(&[120., 121., 119.]), true, 0.1).0,
            "regressed"
        );
        // Higher is better: the same rise is a gain, a fall regresses.
        assert_eq!(
            verdict(&steady, &side(&[120., 121., 119.]), false, 0.1).0,
            "ok"
        );
        assert_eq!(
            verdict(&steady, &side(&[80., 81., 79.]), false, 0.1).0,
            "regressed"
        );
        let noisy = side(&[60., 100., 140., 100.]);
        assert_eq!(verdict(&steady, &noisy, true, 0.1).0, "unresolved");
    }
}
