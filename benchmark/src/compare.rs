//! `compare <a.json> <b.json>`: hold result set `b` to `a` with each
//! end-to-end metric's bound, one row per (metric, workload).
//!
//! A result file (written by `run`) holds, per workload and metric, one
//! value per run. The verdict follows the guides: `regressed` when `b`'s
//! median is worse than `a`'s by more than the bound; `unresolved` when
//! either side's run-to-run spread (inter-quartile range over median) is
//! wider than the bound, unless every run of `b` reads better than every
//! run of `a`; otherwise `ok`.

use crate::json::{self, Value};
use crate::measure::median;
use crate::metrics::{Better, END_TO_END};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(|a, b| a.total_cmp(b));
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(&mut values.to_vec());
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (med_a, med_b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let b_always_better = a.iter().all(|&va| {
        b.iter().all(|&vb| match better {
            Better::Lower => vb < va,
            Better::Higher => vb > va,
        })
    });
    let verdict = if (spread(a) > bound || spread(b) > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn runs_of(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seconds", "clients"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the two result sets differ in {key:?}: not comparable"
            ));
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("no workloads in the first file")?;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "worse by", "bound"
    );
    let mut clean = true;
    for workload in workloads.keys() {
        for m in END_TO_END {
            let (Some(va), Some(vb)) =
                (runs_of(&a, workload, m.name), runs_of(&b, workload, m.name))
            else {
                return Err(format!("{workload}/{} missing from one side", m.name));
            };
            let (verdict, worse_by) = judge(&va, &vb, m.better, m.bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<12} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                workload,
                m.name,
                median(&mut va.clone()),
                median(&mut vb.clone()),
                worse_by * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[5.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&steady, &[104.0, 105.0, 104.0, 106.0], Better::Lower, 0.10).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[114.0, 115.0, 114.0, 116.0], Better::Lower, 0.10).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &[114.0, 115.0, 114.0, 116.0], Better::Higher, 0.10).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[84.0, 85.0, 84.0, 86.0], Better::Higher, 0.10).0,
            Verdict::Regressed
        );
        let noisy = [80.0, 130.0, 95.0, 120.0];
        assert_eq!(
            judge(&noisy, &[100.0, 101.0, 99.0, 100.0], Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[70.0, 71.0, 69.0, 70.0], Better::Lower, 0.10).0,
            Verdict::Ok,
            "every run better"
        );
        assert_eq!(
            judge(&[100.0], &[120.0], Better::Lower, 0.10).0,
            Verdict::Regressed,
            "single runs compare medians"
        );
    }
}
