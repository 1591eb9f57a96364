//! `perf --compare a.json b.json`: per workload x end-to-end metric, is
//! `b` worse than `a` by more than the metric's bound?

use crate::jsonio;
use crate::schema::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use serde_json::Value;

/// Absolute rise of `failed / attempted` that counts as a regression.
const FAILED_SHARE_BOUND: f64 = 0.001;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The runs disagree among themselves by more than the bound.
    Unresolved,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judge one metric from each side's runs. `ratio` is `b / a` of medians.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Missing, f64::NAN);
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let ratio = mb / ma;
    // Share of the base's median by which `b` is worse (negative: better).
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma,
        Better::Lower => (mb - ma) / ma,
    };
    let spread = |xs: &[f64]| {
        let m = stats::median(xs);
        let (lo, hi) =
            xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &x| (l.min(x), h.max(x)));
        (hi - lo) / m
    };
    // With runs that disagree by more than the bound, a median proves
    // nothing unless every run of one side beats every run of the other.
    let all_b = |beats: fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let (b_better, b_worse) = match better {
        Better::Higher => (all_b(|y, x| y > x), all_b(|y, x| y < x)),
        Better::Lower => (all_b(|y, x| y < x), all_b(|y, x| y > x)),
    };
    let verdict = if spread(a).max(spread(b)) > bound && !b_better && !b_worse {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, ratio)
}

fn runs_of(report: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let entry = jsonio::get(report, "workloads")
        .and_then(|w| jsonio::get(w, workload))
        .and_then(|w| jsonio::get(w, "end_to_end"))
        .and_then(|m| jsonio::get(m, metric));
    match entry.and_then(|e| jsonio::get(e, "runs")) {
        Some(Value::Array(xs)) => xs
            .iter()
            .filter_map(|x| if let Value::Number(n) = x { Some(*n) } else { None })
            .collect(),
        _ => entry.and_then(|e| jsonio::num(e, "value")).into_iter().collect(),
    }
}

fn failed_share(report: &Value, workload: &str) -> Option<f64> {
    let w = jsonio::get(jsonio::get(report, "workloads")?, workload)?;
    Some(jsonio::num(w, "failed")? / jsonio::num(w, "attempted")?.max(1.0))
}

/// Print the delta table; `true` when anything regressed.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut regressed = false;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base (a)", "change (b)", "b/a", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (ra, rb) = (runs_of(a, w.name, m.name), runs_of(b, w.name, m.name));
            let (verdict, ratio) = judge(&ra, &rb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let med = |xs: &[f64]| if xs.is_empty() { f64::NAN } else { stats::median(xs) };
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {} (n={}/{}, {})",
                w.name,
                m.name,
                med(&ra),
                med(&rb),
                ratio,
                m.bound * 100.0,
                verdict.label(),
                ra.len(),
                rb.len(),
                m.unit
            );
        }
        if let (Some(fa), Some(fb)) = (failed_share(a, w.name), failed_share(b, w.name)) {
            let bad = fb > fa + FAILED_SHARE_BOUND;
            regressed |= bad;
            println!(
                "{:<14} {:<22} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                w.name,
                "failed_share",
                fa,
                fb,
                "-",
                "+0.001",
                if bad { "REGRESSED" } else { "ok" }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let hi = Better::Higher;
        let lo = Better::Lower;
        assert_eq!(judge(&[100.0], &[97.0], hi, 0.05).0, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[94.0], hi, 0.05).0, Verdict::Regressed);
        assert_eq!(judge(&[100.0], &[106.0], hi, 0.05).0, Verdict::Improved);
        assert_eq!(judge(&[10.0], &[10.6], lo, 0.05).0, Verdict::Regressed);
        assert_eq!(judge(&[10.0], &[9.0], lo, 0.05).0, Verdict::Improved);
        let (v, ratio) = judge(&[10.0], &[10.4], lo, 0.05);
        assert_eq!(v, Verdict::Ok);
        assert!((ratio - 1.04).abs() < 1e-12, "every ratio is b over a");
        // Runs that disagree by more than the bound resolve nothing...
        assert_eq!(
            judge(&[90.0, 100.0, 110.0], &[85.0, 95.0, 104.0], hi, 0.05).0,
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        assert_eq!(
            judge(&[90.0, 100.0, 110.0], &[70.0, 75.0, 80.0], hi, 0.05).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&[], &[1.0], hi, 0.05).0, Verdict::Missing);
    }

    #[test]
    fn a_report_compares_clean_against_itself_and_flags_a_slowdown() {
        let report = |dps: f64| {
            crate::jsonio::parse(&format!(
                "{{\"workloads\": {{\"dense_direct\": {{\"attempted\": 100, \"failed\": 0, \"end_to_end\": \
                 {{\"decisions_per_s\": {{\"value\": {dps}, \"unit\": \"1/s\", \"runs\": [{dps}, {dps}]}}}}}}}}}}"
            ))
            .unwrap()
        };
        assert!(!compare(&report(1000.0), &report(1000.0)));
        assert!(compare(&report(1000.0), &report(700.0)));
        assert!(!compare(&report(700.0), &report(1000.0)), "an improvement is not a regression");
    }
}
