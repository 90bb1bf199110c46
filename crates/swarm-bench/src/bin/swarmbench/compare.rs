//! Tools over run records (the JSON lines `swarmbench run` appends):
//!
//! * `compare BASE HEAD` — the gain rule for a change against its parent:
//!   at least 10 pairs of runs (the i-th run of each side on a workload
//!   form a pair; alternate which side runs first when collecting them),
//!   the change wins at least 9 in 10 pairs, and the medians differ by
//!   more than the parent's interquartile range. For an end-to-end metric
//!   a median worse by more than its bound is a regression, and a metric
//!   whose run-to-run spread exceeds its bound is reported unresolved
//!   unless every run of the change beats every run of the parent.
//!   Per-layer metrics carry no bound: they show a gain or none.
//! * `agree A B` — two sets of runs of the same code must agree on every
//!   end-to-end metric: each set's spread within the metric's bound, and
//!   the two medians within the bound of each other.
//! * `summary RUNS...` — median and quartiles per workload and metric.
//!
//! Only untraced runs are read, so of the per-layer metrics only those an
//! untraced run measures (`wall_s`, `call_ms_p50`, `peak_rss_mb`) take
//! part. One row per workload and metric.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::decl::{declared, Decl};
use crate::stats::{median, quartiles, spread};

/// Pairs the gain rule needs.
const MIN_PAIRS: usize = 10;

/// Untraced runs per workload, in file order: metric name → values.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load(paths: &[PathBuf]) -> Result<(Runs, Vec<Value>), String> {
    let mut runs = Runs::new();
    let mut records = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let v =
                Value::parse_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
            if v["trace"] == true {
                continue;
            }
            let workload = v["workload"]
                .as_str()
                .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
            let metrics = v["metrics"]
                .as_object()
                .ok_or_else(|| format!("{}:{}: no metrics", path.display(), n + 1))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
                .collect();
            runs.entry(workload.to_string()).or_default().push(metrics);
            records.push(v);
        }
    }
    Ok((runs, records))
}

fn values(runs: &[BTreeMap<String, f64>], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric).copied()).collect()
}

/// Is `a` better than `b` for this metric?
fn better(d: &Decl, a: f64, b: f64) -> bool {
    if d.lower_is_better {
        a < b
    } else {
        a > b
    }
}

/// By how much `head` is worse than `base`, as a share of `base`
/// (negative when better).
fn worse_by(d: &Decl, head: f64, base: f64) -> f64 {
    let diff = if d.lower_is_better {
        head - base
    } else {
        base - head
    };
    diff / base.abs()
}

/// Four significant digits, whether the value is microseconds or seconds.
fn sig(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

fn fmt_side(v: &[f64]) -> String {
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{} [{}, {}]", sig(m), sig(q1), sig(q3)),
        (Some(m), None) => sig(m),
        _ => "-".to_string(),
    }
}

/// The verdict for one workload and metric under the gain rule.
fn verdict(d: &Decl, base: &[f64], head: &[f64]) -> (String, bool) {
    let pairs = base.len().min(head.len());
    if pairs < MIN_PAIRS {
        return (format!("insufficient: {pairs} pairs < {MIN_PAIRS}"), true);
    }
    let (bm, hm) = (median(base).unwrap(), median(head).unwrap());
    let (q1, q3) = quartiles(base).unwrap();
    let wins = (0..pairs).filter(|&i| better(d, head[i], base[i])).count();
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(d, h, b)));
    let widest = spread(base)
        .unwrap_or(f64::INFINITY)
        .max(spread(head).unwrap_or(f64::INFINITY));
    if wins * 10 >= pairs * 9 && better(d, hm, bm) && (hm - bm).abs() > q3 - q1 {
        return (format!("gain ({wins}/{pairs} pairs)"), true);
    }
    let Some(bound) = d.bound else {
        return (format!("no gain ({wins}/{pairs} pairs won)"), true);
    };
    if widest > bound && !all_better {
        (
            format!("unresolved (spread {widest:.3} > bound {bound})"),
            true,
        )
    } else if worse_by(d, hm, bm) > bound {
        (
            format!(
                "REGRESSED ({:+.1}% > bound {bound})",
                100.0 * worse_by(d, hm, bm)
            ),
            false,
        )
    } else {
        (format!("within bound ({wins}/{pairs} pairs won)"), true)
    }
}

pub fn compare(base: &Path, head: &Path) -> Result<bool, String> {
    let (base, _) = load(&[base.to_path_buf()])?;
    let (head, _) = load(&[head.to_path_buf()])?;
    let decl = declared();
    let mut ok = true;
    println!(
        "{:<13} {:<12} {:<32} {:<32} verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]"
    );
    for (w, base_runs) in &base {
        let Some(head_runs) = head.get(w) else {
            continue;
        };
        for d in decl.end_to_end.iter().chain(&decl.per_layer) {
            let (b, h) = (values(base_runs, &d.name), values(head_runs, &d.name));
            if b.is_empty() && h.is_empty() {
                continue;
            }
            let (text, fine) = verdict(d, &b, &h);
            ok &= fine;
            println!(
                "{w:<13} {:<12} {:<32} {:<32} {text}",
                d.name,
                fmt_side(&b),
                fmt_side(&h)
            );
        }
    }
    Ok(ok)
}

pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, _) = load(&[a.to_path_buf()])?;
    let (b, _) = load(&[b.to_path_buf()])?;
    let decl = declared();
    let mut ok = true;
    println!(
        "{:<13} {:<12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "spread A", "spread B", "drift", "bound"
    );
    for (w, a_runs) in &a {
        let Some(b_runs) = b.get(w) else {
            println!("{w:<13} missing from the second set");
            ok = false;
            continue;
        };
        for d in &decl.end_to_end {
            let (va, vb) = (values(a_runs, &d.name), values(b_runs, &d.name));
            let bound = d.bound.unwrap_or(0.0);
            let (sa, sb) = (spread(&va), spread(&vb));
            let drift = match (median(&va), median(&vb)) {
                (Some(ma), Some(mb)) => Some((mb - ma).abs() / ma.abs()),
                _ => None,
            };
            let spread_ok = matches!((sa, sb), (Some(x), Some(y)) if x <= bound && y <= bound);
            let fine = spread_ok && drift.is_some_and(|x| x <= bound);
            ok &= fine;
            let f = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.4}"));
            println!(
                "{w:<13} {:<12} {:>9} {:>9} {:>9} {bound:>7}  {}",
                d.name,
                f(sa),
                f(sb),
                f(drift),
                if fine { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(ok)
}

/// Civil date (UTC) of a unix timestamp, `YYYY-MM-DD`.
fn civil_date(unix_s: u64) -> String {
    let z = (unix_s / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

pub fn summary(paths: &[PathBuf]) -> Result<bool, String> {
    let (runs, records) = load(paths)?;
    let collect = |key: &str| {
        let mut v: Vec<u64> = records.iter().filter_map(|r| r[key].as_u64()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut workloads = serde_json::Map::new();
    for (w, rs) in &runs {
        let mut metrics = serde_json::Map::new();
        let decl = declared();
        for d in decl.end_to_end.iter().chain(&decl.per_layer) {
            let v = values(rs, &d.name);
            if let (Some(m), Some((q1, q3))) = (median(&v), quartiles(&v)) {
                metrics.insert(
                    d.name.clone(),
                    json!({"median": m, "q1": q1, "q3": q3, "unit": d.unit.clone()}),
                );
            }
        }
        workloads.insert(
            w.clone(),
            json!({"runs": rs.len(), "metrics": Value::Object(metrics)}),
        );
    }
    let out = json!({
        "nproc": collect("nproc"),
        "date": collect("unix_s").last().map(|&s| civil_date(s)),
        "seeds": collect("seed"),
        "workloads": Value::Object(workloads),
    });
    println!("{}", out.to_json_string_pretty());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(lower: bool, bound: f64) -> Decl {
        Decl {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let d = decl(true, 0.1);
        let base: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let head: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert!(verdict(&d, &base, &head).0.starts_with("gain"));
        assert!(verdict(&d, &base[..9], &head[..9])
            .0
            .starts_with("insufficient"));
        let mut mixed = head.clone();
        mixed[0] = 2.0;
        mixed[1] = 2.0;
        assert!(
            !verdict(&d, &base, &mixed).0.starts_with("gain"),
            "8/10 wins is not a gain"
        );
    }

    #[test]
    fn regression_and_unresolved() {
        let d = decl(true, 0.1);
        let base: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let slow: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
        let (text, fine) = verdict(&d, &base, &slow);
        assert!(text.starts_with("REGRESSED") && !fine);
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 0.5 } else { 1.6 })
            .collect();
        assert!(verdict(&d, &base, &noisy).0.starts_with("unresolved"));
        let same = base.clone();
        assert!(verdict(&d, &base, &same).0.starts_with("within bound"));
        let higher_better = decl(false, 0.1);
        assert!(verdict(&higher_better, &base, &slow).0.starts_with("gain"));
        let per_layer = Decl { bound: None, ..d };
        let (text, fine) = verdict(&per_layer, &base, &slow);
        assert!(
            text.starts_with("no gain") && fine,
            "no bound, no regression"
        );
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_700_000_000), "2023-11-14");
    }
}
