//! `oil-benchmark compare parent.json change.json`: one row per
//! (end-to-end metric, workload), by the rules of the choosing-metrics
//! guide — a gain needs at least ten pairs, nine tenths of them won and a
//! median gap beyond the parent's own quartile spread; a regression is a
//! median worse than the parent's by more than the metric's committed bound.

use crate::json::Value;
use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{self, Summary};
use crate::suite;

pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// Too few pairs, a degraded side, or a spread wider than the bound.
    Unresolved,
    Regressed,
}

/// `true` when `a` reads better than `b` in the metric's direction.
fn better(def: &MetricDef, a: f64, b: f64) -> bool {
    match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Judge the change's runs against the parent's, paired in run order.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64], degraded: bool) -> Verdict {
    let pairs = parent.len().min(change.len());
    if degraded || pairs == 0 {
        return Verdict::Unresolved;
    }
    let (p, c) = (stats::summarize(parent), stats::summarize(change));
    let every_run_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(def, c, p)));
    let wins = (0..pairs)
        .filter(|&i| better(def, change[i], parent[i]))
        .count();
    let parent_iqr = p.q3 - p.q1;
    if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && (c.median - p.median).abs() > parent_iqr
        && better(def, c.median, p.median)
    {
        return Verdict::Improved;
    }
    // How much worse the change's median is, as a share of the parent's.
    let worse_by = match def.better {
        Better::Lower => (c.median - p.median) / p.median.abs(),
        Better::Higher => (p.median - c.median) / p.median.abs(),
    };
    if worse_by > def.bound {
        return Verdict::Regressed;
    }
    if pairs < MIN_PAIRS || (p.spread() > def.bound && !every_run_better) {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// The untraced runs of one workload in a result file: per end-to-end
/// metric the values in run order, and whether any run was degraded.
fn runs_of(set: &Value, workload: &str) -> (Vec<Vec<f64>>, bool) {
    let mut values = vec![Vec::new(); END_TO_END.len()];
    let mut degraded = false;
    for run in set.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        if !suite::is_run(run, workload, false) {
            continue;
        }
        degraded |= run.get("degraded").and_then(Value::as_bool) == Some(true);
        for (slot, def) in values.iter_mut().zip(END_TO_END) {
            slot.extend(suite::metric(run, def.name));
        }
    }
    (values, degraded)
}

fn describe(s: &Summary) -> String {
    format!("{:.6e} [{:.4e}..{:.4e}] n={}", s.median, s.q1, s.q3, s.n)
}

/// Print the table; `Err` when any row regressed.
pub fn compare(parent: &Value, change: &Value) -> Result<(), String> {
    println!(
        "{:<15} {:<16} {:<11} {:>9}  parent median [q1..q3] -> change median [q1..q3]",
        "workload", "metric", "verdict", "ratio"
    );
    let mut regressed = 0;
    for w in WORKLOADS {
        let (parent_runs, parent_degraded) = runs_of(parent, w.name);
        let (change_runs, change_degraded) = runs_of(change, w.name);
        for ((def, p), c) in END_TO_END.iter().zip(&parent_runs).zip(&change_runs) {
            let verdict = judge(def, p, c, parent_degraded || change_degraded);
            regressed += usize::from(verdict == Verdict::Regressed);
            if p.is_empty() || c.is_empty() {
                println!(
                    "{:<15} {:<16} {:<11} (no runs on one side)",
                    w.name, def.name, "unresolved"
                );
                continue;
            }
            let (ps, cs) = (stats::summarize(p), stats::summarize(c));
            println!(
                "{:<15} {:<16} {:<11} {:>9.4}  {} -> {} {}",
                w.name,
                def.name,
                format!("{verdict:?}").to_lowercase(),
                cs.median / ps.median,
                describe(&ps),
                describe(&cs),
                def.unit
            );
        }
    }
    println!(
        "ratio = change median / parent median; a gain needs >= {MIN_PAIRS} pairs, \
         >= 9/10 won and a median gap beyond the parent's q3-q1"
    );
    if regressed > 0 {
        return Err(format!("{regressed} (metric, workload) row(s) regressed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: MetricDef = MetricDef {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        exact: false,
    };
    const COST: MetricDef = MetricDef {
        better: Better::Lower,
        ..RATE
    };

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.01 * ((i % 5) as f64 - 2.0)))
            .collect()
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parent_spread() {
        let parent = around(100.0, 10);
        assert_eq!(
            judge(&RATE, &parent, &around(110.0, 10), false),
            Verdict::Improved
        );
        // The same gain on a lower-is-better metric is a regression...
        assert_eq!(
            judge(&COST, &parent, &around(111.5, 10), false),
            Verdict::Regressed
        );
        // ...and the mirror image a gain.
        assert_eq!(
            judge(&COST, &parent, &around(90.0, 10), false),
            Verdict::Improved
        );
        // Nine pairs cannot claim anything.
        assert_eq!(
            judge(&RATE, &parent[..9], &around(110.0, 9), false),
            Verdict::Unresolved
        );
        // A gap inside the parent's own spread is no gain.
        assert_eq!(
            judge(&RATE, &parent, &around(100.5, 10), false),
            Verdict::Unchanged
        );
        // Two lost pairs out of ten are one too many.
        let mut change = around(110.0, 10);
        (change[0], change[1]) = (90.0, 90.0);
        assert_eq!(judge(&RATE, &parent, &change, false), Verdict::Unchanged);
    }

    #[test]
    fn regression_is_measured_against_the_committed_bound() {
        let parent = around(100.0, 10);
        assert_eq!(
            judge(&RATE, &parent, &around(91.0, 10), false),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&RATE, &parent, &around(89.0, 10), false),
            Verdict::Regressed
        );
        // Regressions show with few pairs too; a degraded side never does.
        assert_eq!(
            judge(&RATE, &parent[..3], &around(80.0, 3), false),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&RATE, &parent, &around(80.0, 10), true),
            Verdict::Unresolved
        );
        assert_eq!(judge(&RATE, &[], &parent, false), Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 6.0 * (i as f64 - 4.5)).collect();
        assert!(stats::summarize(&noisy).spread() > RATE.bound);
        assert_eq!(judge(&RATE, &noisy, &noisy, false), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent
        // (here without reaching the nine-in-ten *paired* gain rule's gap).
        let all_better: Vec<f64> = (0..10).map(|i| 128.0 + 0.1 * i as f64).collect();
        assert_eq!(judge(&RATE, &noisy, &all_better, false), Verdict::Unchanged);
    }

    #[test]
    fn result_files_are_read_per_workload_and_metric() {
        let run = |workload: &str, trace: bool, rate: f64, degraded: bool| {
            Value::object([
                ("workload", Value::from(workload)),
                ("trace", Value::from(trace)),
                ("degraded", Value::from(degraded)),
                (
                    "metrics",
                    Value::object([(
                        "items_per_s",
                        Value::object([("value", Value::from(rate)), ("unit", Value::from("1/s"))]),
                    )]),
                ),
            ])
        };
        let set = Value::object([(
            "runs",
            Value::Arr(vec![
                run("pal_1w", false, 1.0, false),
                run("pal_1w", true, 9.0, false),
                run("pal_2w", false, 3.0, true),
                run("pal_1w", false, 2.0, false),
            ]),
        )]);
        let (values, degraded) = runs_of(&set, "pal_1w");
        assert_eq!(values[0], vec![1.0, 2.0]);
        assert!(values[1].is_empty() && !degraded);
        assert!(runs_of(&set, "pal_2w").1);
        assert!(compare(&set, &set).is_ok());
    }
}
