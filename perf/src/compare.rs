//! `perf compare <a.json> <b.json>`: is report `b` a regression of `a`?

use crate::est;
use crate::json::Json;
use crate::report::{Better, END_TO_END};

/// Verdict for one `(workload, metric)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the bound allows.
    Regression,
    /// `a` has the workload or the metric and `b` lost it: as bad as a
    /// regression.
    Missing,
    /// A simulated metric differs, within its bound or for the better.
    /// Both reports ran the same seed, so this is never noise: the
    /// modelled design changed.
    Changed,
    /// The recorded run-to-run spread exceeds the bound, so a change of
    /// the bound's size cannot be told from noise.
    Unresolved,
    /// The metric does not exist on this workload.
    Absent,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Missing => "MISSING",
            Verdict::Changed => "changed",
            Verdict::Unresolved => "unresolved",
            Verdict::Absent => "n/a",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Missing)
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse_by: f64,
    /// The wider of the two reports' raw run-to-run spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// `sim_digest` of one workload in both reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests {
    pub workload: String,
    pub a: String,
    pub b: String,
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// One per workload both reports have.
    pub digests: Vec<Digests>,
}

fn raw(metric: &Json) -> Vec<f64> {
    metric
        .get("raw")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares every `(workload, end-to-end metric)` of two `perf run`
/// reports, applying each metric's direction and bound, and every
/// workload's `sim_digest`.
///
/// # Errors
///
/// Refuses reports that are not comparable: one lacks `workloads`, or
/// they differ in seed, `--quick`, repetitions or op counts. The bounds
/// hold between reports of identical inputs only.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    for key in ["seed", "quick", "reps", "sizes"] {
        match (a.get(key), b.get(key)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => {
                return Err(format!(
                    "not comparable: '{key}' is {} in the first report and {} in the second",
                    x.compact(),
                    y.compact()
                ))
            }
            _ => return Err(format!("a report has no '{key}'")),
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first report has no 'workloads'")?;
    b.get("workloads")
        .and_then(Json::as_obj)
        .ok_or("second report has no 'workloads'")?;
    let mut rows = Vec::new();
    let mut digests = Vec::new();
    for (workload, wa) in workloads {
        let wb = b.path(&["workloads", workload]);
        let digest = |w: &Json| {
            w.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if let (Some(da), Some(db)) = (digest(wa), wb.and_then(digest)) {
            digests.push(Digests {
                workload: workload.clone(),
                a: da,
                b: db,
            });
        }
        for def in END_TO_END {
            let ma = wa.path(&["end_to_end", def.name]);
            let mb = wb.and_then(|w| w.path(&["end_to_end", def.name]));
            let va = ma.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let vb = mb.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let mut row = Row {
                workload: workload.clone(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by: 0.0,
                spread: 0.0,
                verdict: if va.is_some() {
                    Verdict::Missing
                } else {
                    Verdict::Absent
                },
            };
            if let (Some(va), Some(vb), Some(ma), Some(mb)) = (va, vb, ma, mb) {
                let worse_abs = match def.better {
                    Better::Lower => vb - va,
                    Better::Higher => va - vb,
                };
                row.worse_by = if va == 0.0 { 0.0 } else { worse_abs / va.abs() };
                let allowed = (def.bound * va.abs()).max(def.abs_slack);
                let (raw_a, raw_b) = (raw(ma), raw(mb));
                row.spread = est::spread(&raw_a).max(est::spread(&raw_b));
                let noisy = row.spread > def.bound;
                // Every run of b better than every run of a settles it
                // whatever the spread.
                let b_dominates = !raw_a.is_empty()
                    && !raw_b.is_empty()
                    && match def.better {
                        Better::Lower => {
                            raw_b.iter().copied().fold(f64::MIN, f64::max)
                                < raw_a.iter().copied().fold(f64::MAX, f64::min)
                        }
                        Better::Higher => {
                            raw_b.iter().copied().fold(f64::MAX, f64::min)
                                > raw_a.iter().copied().fold(f64::MIN, f64::max)
                        }
                    };
                row.verdict = if def.name == "fail_share" {
                    if vb > va {
                        Verdict::Regression
                    } else {
                        Verdict::Ok
                    }
                } else if worse_abs > allowed {
                    Verdict::Regression
                } else if def.clock == "simulated" && va != vb {
                    Verdict::Changed
                } else if noisy && !b_dominates {
                    Verdict::Unresolved
                } else {
                    Verdict::Ok
                };
            }
            rows.push(row);
        }
    }
    Ok(Comparison { rows, digests })
}

/// Prints one row per `(workload, metric)` and one `sim_digest` line per
/// workload; returns `true` if `b` regressed or lost anything.
pub fn print(c: &Comparison) -> bool {
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>10}  verdict",
        "workload", "metric", "a", "b", "worse by", "raw spread"
    );
    let num = |v: Option<f64>| v.map_or("n/a".to_owned(), |v| format!("{v:.6}"));
    for r in &c.rows {
        println!(
            "{:<16} {:<18} {:>16} {:>16} {:>8.2}% {:>9.2}%  {}",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            100.0 * r.worse_by,
            100.0 * r.spread,
            r.verdict.label()
        );
    }
    for d in &c.digests {
        if d.a == d.b {
            println!("{:<16} sim_digest {} identical", d.workload, d.a);
        } else {
            println!(
                "{:<16} sim_digest {} -> {} CHANGED: simulated statistics differ",
                d.workload, d.a, d.b
            );
        }
    }
    c.rows.iter().any(|r| r.verdict.fails())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops_per_s: f64, raw: Vec<f64>, cycles: f64, fail_share: f64, setup: f64) -> Json {
        let metric = |v: f64, raw: Vec<f64>| Json::obj().with("value", v).with("raw", raw);
        Json::obj()
            .with("seed", 42u64)
            .with("quick", false)
            .with("reps", 24u64)
            .with("sizes", Json::obj().with("ctrl_segment", 64u64))
            .with(
                "workloads",
                Json::obj().with(
                    "w",
                    Json::obj().with("sim_digest", format!("{cycles}")).with(
                        "end_to_end",
                        Json::obj()
                            .with("ops_per_s", metric(ops_per_s, raw))
                            .with("sim_cycles_per_op", metric(cycles, vec![]))
                            .with("fail_share", metric(fail_share, vec![]))
                            .with("setup_s", metric(setup, vec![]))
                            .with("dyn_speedup", Json::obj().with("value", Json::Null)),
                    ),
                ),
            )
    }

    fn verdict(c: &Comparison, metric: &str) -> Verdict {
        c.rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn direction_and_bound_decide_regressions() {
        let a = report(1000.0, vec![990.0, 1000.0, 1010.0], 50.0, 0.0, 0.100);
        // 5% slower host time is inside 8%; 2% more cycles is outside 1%;
        // 15 ms more set-up is inside the 20 ms slack.
        let b = report(950.0, vec![940.0, 950.0, 960.0], 51.0, 0.0, 0.115);
        let c = compare(&a, &b).unwrap();
        assert_eq!(verdict(&c, "ops_per_s"), Verdict::Ok);
        assert_eq!(verdict(&c, "sim_cycles_per_op"), Verdict::Regression);
        assert_eq!(verdict(&c, "setup_s"), Verdict::Ok);
        assert_eq!(verdict(&c, "dyn_speedup"), Verdict::Absent);
        assert_eq!(verdict(&c, "peak_rss_mb"), Verdict::Absent);
        assert!(print(&c));
        // 9% slower is outside 8%.
        let slow = report(910.0, vec![900.0, 910.0, 920.0], 50.0, 0.0, 0.1);
        assert_eq!(
            verdict(&compare(&a, &slow).unwrap(), "ops_per_s"),
            Verdict::Regression
        );
        // Faster is never a regression; fewer cycles is a change all the
        // same, and so is the digest.
        let c = compare(&b, &a).unwrap();
        assert_eq!(verdict(&c, "ops_per_s"), Verdict::Ok);
        assert_eq!(verdict(&c, "sim_cycles_per_op"), Verdict::Changed);
        assert_ne!(c.digests[0].a, c.digests[0].b);
        assert!(!print(&c));
    }

    #[test]
    fn any_simulated_difference_between_reports_of_one_seed_is_flagged() {
        let a = report(1000.0, vec![], 50.0, 0.0, 0.1);
        // 0.2% more cycles: inside the 1% bound, but never noise.
        let b = report(1000.0, vec![], 50.1, 0.0, 0.1);
        let c = compare(&a, &b).unwrap();
        assert_eq!(verdict(&c, "sim_cycles_per_op"), Verdict::Changed);
        let same = compare(&a, &a).unwrap();
        assert_eq!(verdict(&same, "sim_cycles_per_op"), Verdict::Ok);
        assert_eq!(same.digests[0].a, same.digests[0].b);
    }

    #[test]
    fn a_higher_fail_share_is_always_a_regression() {
        let a = report(1000.0, vec![], 50.0, 0.0, 0.1);
        let b = report(1000.0, vec![], 50.0, 0.001, 0.1);
        assert_eq!(
            verdict(&compare(&a, &b).unwrap(), "fail_share"),
            Verdict::Regression
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_one_side_dominates() {
        let noisy = vec![600.0, 800.0, 1000.0, 1200.0, 1400.0];
        let a = report(1000.0, noisy.clone(), 50.0, 0.0, 0.1);
        let same = report(990.0, noisy, 50.0, 0.0, 0.1);
        assert_eq!(
            verdict(&compare(&a, &same).unwrap(), "ops_per_s"),
            Verdict::Unresolved
        );
        let faster = report(1800.0, vec![1500.0, 1800.0, 2100.0], 50.0, 0.0, 0.1);
        assert_eq!(
            verdict(&compare(&a, &faster).unwrap(), "ops_per_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn what_b_lost_is_a_regression() {
        let a = report(1000.0, vec![], 50.0, 0.0, 0.1);
        // The metric became null.
        let mut b = a.clone();
        let null = Json::obj().with("value", Json::Null);
        let mut e2e = b.path(&["workloads", "w", "end_to_end"]).unwrap().clone();
        e2e.set("sim_cycles_per_op", null);
        let w = Json::obj().with("sim_digest", "50").with("end_to_end", e2e);
        b.set("workloads", Json::obj().with("w", w));
        let c = compare(&a, &b).unwrap();
        assert_eq!(verdict(&c, "sim_cycles_per_op"), Verdict::Missing);
        assert_eq!(verdict(&c, "ops_per_s"), Verdict::Ok);
        assert!(print(&c));
        // Gaining a metric is not: the row reads n/a.
        assert_eq!(
            verdict(&compare(&b, &a).unwrap(), "sim_cycles_per_op"),
            Verdict::Absent
        );
        // The whole workload is gone.
        b.set("workloads", Json::obj());
        let c = compare(&a, &b).unwrap();
        assert_eq!(verdict(&c, "ops_per_s"), Verdict::Missing);
        assert_eq!(verdict(&c, "dyn_speedup"), Verdict::Absent);
        assert!(c.digests.is_empty());
        assert!(print(&c));
    }

    #[test]
    fn reports_of_different_inputs_are_refused() {
        let a = report(1000.0, vec![], 50.0, 0.0, 0.1);
        for (key, other) in [
            ("seed", Json::from(7u64)),
            ("quick", Json::from(true)),
            ("reps", Json::from(1u64)),
            ("sizes", Json::obj().with("ctrl_segment", 256u64)),
        ] {
            let mut b = a.clone();
            b.set(key, other);
            let err = compare(&a, &b).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        let err = compare(&a, &Json::obj().with("workloads", Json::obj())).unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }
}
