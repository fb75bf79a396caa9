//! What the benchmark prints and writes: the metric table, the driver's
//! result line, trace and results files, and `compare`.

use crate::check::benchmark_dir;
use crate::json::{self, Json};
use crate::stats;
use crate::workloads::{Outcome, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub fn out_dir() -> Result<PathBuf, String> {
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Every metric by name, with unit, sample count, median and (for
/// timings) the highest percentile the sample supports.
pub fn print_table(workload: Workload, trace: bool, outcome: &Outcome) {
    println!(
        "# {} ({}): {} attempted, {} failed",
        workload.name(),
        if trace {
            "traced pass, per-layer"
        } else {
            "untraced, end-to-end"
        },
        outcome.checks.attempted,
        outcome.checks.failed
    );
    for m in &outcome.metrics {
        let tail = m
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p}={v:.4}"));
        println!(
            "{:<36} {:>16.4} {:<6} n={}{tail}",
            m.name, m.value, m.unit, m.n
        );
    }
    for note in &outcome.checks.notes {
        println!("! {note}");
    }
}

/// The last line of a driver-mode run.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        (
            "attempted",
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

pub fn write_trace(
    workload: Workload,
    outcome: &Outcome,
    keep_requests: u32,
) -> Result<(), String> {
    let Some(rec) = &outcome.trace else {
        return Ok(());
    };
    let path = out_dir()?.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, rec.to_json(workload.name(), keep_requests))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "# {} spans recorded, sample written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok(())
}

/// A metric as a finished run's result line carries it.
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Read a result line back: whether the run was correct, and its metrics.
pub fn parse_result_line(line: &str) -> Result<(bool, Vec<Measured>), String> {
    let doc = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let correct = doc.get("correct") == Some(&Json::Bool(true));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?
        .iter()
        .map(|(name, m)| {
            Ok(Measured {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric without value")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((correct, metrics))
}

/// Metric declarations of `BENCHMARK.json`.
pub struct Declared {
    /// name → (better, bound) of the end-to-end metrics.
    pub end_to_end: BTreeMap<String, (String, f64)>,
    pub per_layer: Vec<String>,
}

pub fn declared() -> Result<Declared, String> {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: metric without \"{key}\""))
    };
    let mut end_to_end = BTreeMap::new();
    for m in doc.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: metric without bound")?;
        end_to_end.insert(field(m, "name")?, (field(m, "better")?, bound));
    }
    let per_layer = doc
        .get("per_layer")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|m| field(m, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Declared {
        end_to_end,
        per_layer,
    })
}

/// Names the run printed but `BENCHMARK.json` does not declare, and the
/// reverse. Either is a defect in the benchmark, not in the system.
pub fn undeclared(declared: &Declared, metrics: &[Measured], trace: bool) -> Vec<String> {
    let want: Vec<&String> = if trace {
        declared.per_layer.iter().collect()
    } else {
        declared.end_to_end.keys().collect()
    };
    let mut problems = Vec::new();
    for name in &want {
        if !metrics.iter().any(|m| &&m.name == name) {
            problems.push(format!("declared but not measured: {name}"));
        }
    }
    for m in metrics {
        if !want.contains(&&m.name) {
            problems.push(format!("measured but not declared: {}", m.name));
        }
    }
    problems
}

/// One set of runs: per workload and metric, the value of every run.
#[derive(Default)]
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>,
}

impl ResultSet {
    pub fn add(&mut self, workload: Workload, metrics: &[Measured]) {
        let per = self.values.entry(workload.name().to_string()).or_default();
        for m in metrics {
            per.entry(m.name.clone())
                .or_insert_with(|| (m.unit.clone(), Vec::new()))
                .1
                .push(m.value);
        }
    }

    fn to_json(&self, header: Json) -> Json {
        let workloads = self.values.iter().map(|(w, metrics)| {
            let metrics = metrics.iter().map(|(name, (unit, values))| {
                let (q1, median, q3) = stats::quartiles(values);
                (
                    name.clone(),
                    Json::obj([
                        ("unit", Json::Str(unit.clone())),
                        ("n", Json::Num(values.len() as f64)),
                        ("median", Json::Num(median)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        (
                            "values",
                            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                    ]),
                )
            });
            (w.clone(), Json::obj(metrics))
        });
        Json::obj([("header", header), ("workloads", Json::obj(workloads))])
    }
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
}

/// Where and on what the numbers were taken.
fn fingerprint() -> Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(benchmark_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    Json::obj([
        ("commit", Json::Str(commit)),
        (
            "cpu",
            Json::Str(
                first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "mem_total",
            Json::Str(
                first_line_of("/proc/meminfo", "MemTotal").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("os", Json::Str(std::env::consts::OS.into())),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
    ])
}

/// Write `out/results-<n>.json`, `n` the first number not taken.
pub fn write_results(set: &ResultSet, settings: Json) -> Result<PathBuf, String> {
    let dir = out_dir()?;
    let path = (1..)
        .map(|n| dir.join(format!("results-{n}.json")))
        .find(|p| !p.exists())
        .expect("some number is free");
    let header = Json::obj([("machine", fingerprint()), ("settings", settings)]);
    std::fs::write(&path, set.to_json(header).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judge one metric: `a` the parent's runs, `b` the change's.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    if spread > bound {
        return Verdict::Unresolved;
    }
    let (_, ma, _) = stats::quartiles(a);
    let (_, mb, _) = stats::quartiles(b);
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = better.
    let gain = if higher_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > stats::iqr_share(a) && gain > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load_values(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no workloads in results file")?;
    for (w, metrics) in workloads {
        for (name, m) in metrics.as_obj().into_iter().flatten() {
            let values = m
                .get("values")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            out.insert((w.clone(), name.clone()), values);
        }
    }
    Ok(out)
}

/// Print a verdict per end-to-end metric × workload; true when none is
/// worse or unresolved.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let declared = declared()?;
    let (va, vb) = (load_values(a)?, load_values(b)?);
    let mut clean = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for ((workload, metric), a_values) in &va {
        let Some((better, bound)) = declared.end_to_end.get(metric) else {
            continue;
        };
        let Some(b_values) = vb.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<14} {metric:<28} missing from B");
            clean = false;
            continue;
        };
        let verdict = judge(a_values, b_values, better == "higher", *bound);
        let (_, ma, _) = stats::quartiles(a_values);
        let (_, mb, _) = stats::quartiles(b_values);
        println!(
            "{workload:<14} {metric:<28} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.0}%  {}",
            (mb - ma) / ma * 100.0,
            bound * 100.0,
            match verdict {
                Verdict::Improved => "improved",
                Verdict::Unchanged => "unchanged",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "UNRESOLVED (spread wider than the bound)",
            }
        );
        clean &= !matches!(verdict, Verdict::Worse | Verdict::Unresolved);
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        // Lower is better (a latency).
        assert_eq!(judge(&steady, &same, false, 0.1), Verdict::Unchanged);
        assert_eq!(judge(&steady, &faster, false, 0.1), Verdict::Improved);
        assert_eq!(judge(&steady, &slower, false, 0.1), Verdict::Worse);
        assert_eq!(judge(&steady, &noisy, false, 0.1), Verdict::Unresolved);
        // Higher is better (a throughput): the same numbers flip.
        assert_eq!(judge(&steady, &faster, true, 0.1), Verdict::Worse);
        assert_eq!(judge(&steady, &slower, true, 0.1), Verdict::Improved);
        // Worse, but inside the bound.
        assert_eq!(
            judge(&steady, &[105.0, 106.0, 104.0, 105.5, 104.5], false, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            checks: Default::default(),
            metrics: vec![crate::workloads::Metric::plain("qps", "1/s", 1234.5678, 10)],
            trace: None,
        };
        let line = result_line(&outcome);
        let (correct, measured) = parse_result_line(&line).unwrap();
        assert!(correct && measured.len() == 1 && measured[0].name == "qps");
        assert_eq!(
            (measured[0].unit.as_str(), measured[0].value),
            ("1/s", 1234.5678)
        );
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1.0));
        let qps = doc.get("metrics").unwrap().get("qps").unwrap();
        assert_eq!(qps.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(qps.get("unit").unwrap().as_str(), Some("1/s"));
    }
}
