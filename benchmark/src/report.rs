//! Records: what a run prints and writes, and how two of them compare.

use std::path::Path;

use crate::cli::RunArgs;
use crate::json::Json;
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::{median, spread_share};
use crate::sys;
use crate::workloads::{EndToEnd, Workload};

/// One run's result.
#[derive(Debug, Clone)]
pub struct Record {
    /// The run's arguments.
    pub args: RunArgs,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// `(name, value, unit)` in ledger order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Demoted metrics: printed with the others, kept in the record,
    /// left out of the contract object.
    pub ungated: Vec<(String, f64, &'static str)>,
    /// Everything else the record carries (host, sizes, sample counts).
    pub context: Vec<(String, Json)>,
}

fn num(value: impl Into<f64>) -> Json {
    Json::Num(value.into())
}

/// Host and build facts every record carries. `LEDGER_RUSTC` and
/// `LEDGER_COMMIT` are set by `run.sh`; a bare binary reports
/// `unknown`.
pub fn host_context(pinned: bool) -> Vec<(String, Json)> {
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    vec![
        ("nproc".into(), num(sys::nproc() as u32)),
        (
            "pinning".into(),
            Json::str(if pinned { "cores" } else { "none" }),
        ),
        ("rustc".into(), env("LEDGER_RUSTC")),
        ("commit".into(), env("LEDGER_COMMIT")),
    ]
}

impl Record {
    /// The record of an end-to-end (`--trace 0`) run.
    pub fn end_to_end(args: &RunArgs, run: &EndToEnd) -> Self {
        let [p1, p2] = &run.phases;
        let values = [
            run.setup_rounds.setup_s(),
            p1.per_s,
            p1.p50_ns,
            p2.p50_ns,
            sys::peak_rss_mb().unwrap_or(0.0),
        ];
        let spreads = [
            spread_share(&run.setup_rounds.0),
            p1.spread[0],
            p1.spread[1],
            p2.spread[1],
            0.0,
        ];
        let info = args.workload.phases();
        let phase_context = |i: usize| {
            let (stats, info) = (&run.phases[i], &info[i]);
            Json::obj([
                ("name", Json::str(info.name)),
                ("alias", Json::str(info.alias)),
                ("unit_of_work", Json::str(info.unit_of_work)),
                ("latency_sample", Json::str(info.sample)),
                ("reported_repetition", Json::str(info.pick.word())),
                ("repetitions", num(stats.reps as u32)),
                ("samples_per_repetition", num(stats.samples_per_rep as u32)),
                ("p90_ns", num(stats.p90_ns)),
                ("p99_ns", num(stats.p99_ns)),
            ])
        };
        let mut context = host_context(run.pinned);
        context.extend([
            (
                "setup_rounds".to_string(),
                num(run.setup_rounds.0.len() as u32),
            ),
            ("phase1".to_string(), phase_context(0)),
            ("phase2".to_string(), phase_context(1)),
            (
                "sizes".to_string(),
                Json::obj(run.sizes.iter().map(|&(k, v)| (k, num(v as f64)))),
            ),
            (
                "rep_spread".to_string(),
                Json::obj(
                    END_TO_END
                        .iter()
                        .zip(spreads)
                        .map(|(m, s)| (m.name, num(s))),
                ),
            ),
        ]);
        Self {
            args: args.clone(),
            attempted: p1.attempted + p2.attempted,
            failed: p1.failed + p2.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), v, m.unit))
                .collect(),
            ungated: vec![("phase2_per_s".to_string(), p2.per_s, "1/s")],
            context,
        }
    }

    /// The object the driver reads from the last line of standard
    /// output: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", num(self.attempted.max(1) as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.as_str(),
                        Json::obj([("value", num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    /// The full record: the contract object plus the run's identity,
    /// the host, sizes and sample counts.
    pub fn full(&self) -> Json {
        let Json::Obj(mut pairs) = self.contract() else {
            unreachable!("contract() builds an object")
        };
        pairs.extend([
            ("workload".to_string(), Json::str(self.args.workload.name())),
            ("seed".to_string(), num(self.args.seed as f64)),
            ("seconds".to_string(), num(self.args.seconds)),
            ("scale".to_string(), num(self.args.scale)),
            ("trace".to_string(), num(u8::from(self.args.trace))),
            (
                "failed_share".to_string(),
                num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ]);
        if !self.ungated.is_empty() {
            pairs.push((
                "ungated".to_string(),
                Json::obj(self.ungated.iter().map(|(name, value, unit)| {
                    (
                        name.as_str(),
                        Json::obj([("value", num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ));
        }
        pairs.extend(self.context.iter().cloned());
        Json::Obj(pairs)
    }

    /// Prints `name value unit` per metric (with the issue's alias for
    /// the phase metrics), writes the full record to `--out`, and ends
    /// with the contract object on the last line.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing `--out`.
    pub fn emit(&self) -> std::io::Result<()> {
        let workload = self.args.workload;
        println!(
            "# {} seed={:#x} trace={}",
            workload.name(),
            self.args.seed,
            u8::from(self.args.trace)
        );
        for (name, value, unit) in &self.metrics {
            match alias(workload, name) {
                Some(alias) => println!("{name} {value} {unit}  # {alias}"),
                None => println!("{name} {value} {unit}"),
            }
        }
        for (name, value, unit) in &self.ungated {
            let alias = alias(workload, name).unwrap_or_default();
            println!("{name} {value} {unit}  # {alias} (recorded, not gated)");
        }
        println!(
            "failed_share {} share  # {} of {} attempted",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        if let Some(path) = &self.args.out {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, self.full().render() + "\n")?;
        }
        println!("{}", self.contract().render());
        Ok(())
    }
}

/// The issue's name for an end-to-end phase metric on `workload`:
/// `phase1_per_s` on `cold-single` is its `det_decisions_per_s`, and so
/// on. `None` for metrics that need no translation.
pub fn alias(workload: Workload, metric: &str) -> Option<String> {
    let (phase, rest) = match metric.split_once('_')? {
        ("phase1", rest) => (0, rest),
        ("phase2", rest) => (1, rest),
        _ => return None,
    };
    let info = workload.phases()[phase];
    Some(match rest {
        "per_s" => info.alias.to_string(),
        quantile => format!("{} {quantile}: {}", info.name, info.sample),
    })
}

/// A record read back from a file.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The workload it measured.
    pub workload: String,
    /// Whether it came from the traced run.
    pub traced: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
    /// Spread of the run's own repetitions by metric, where recorded.
    pub rep_spread: Vec<(String, f64)>,
    /// Failed operations.
    pub failed: f64,
}

impl Loaded {
    /// Parses a full record (or a bare contract object, for which the
    /// workload reads as empty).
    ///
    /// # Errors
    ///
    /// A message saying what is missing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text.trim())?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record has no \"metrics\" object")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no numeric value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rep_spread = doc
            .get("rep_spread")
            .and_then(Json::as_obj)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Self {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            traced: doc.get("trace").and_then(Json::as_f64) == Some(1.0),
            metrics,
            rep_spread,
            failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }

    /// Reads and parses `path`.
    ///
    /// # Errors
    ///
    /// The I/O or parse error, prefixed with the path.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn spread(&self, name: &str) -> f64 {
        self.rep_spread
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// How `after` stands against `before` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound and the before-run's own spread.
    Worse,
    /// Better by more than the bound and the before-run's own spread.
    Better,
    /// The gap is inside the bound or inside the spread.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a change of `worsening` (share of the base; negative is an
/// improvement) against the metric's bound and the base run's spread.
pub fn judge(worsening: f64, bound: f64, spread: f64) -> Verdict {
    if worsening.abs() <= bound.max(spread) {
        Verdict::Unresolved
    } else if worsening > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// One row of `ledger diff`.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Unit.
    pub unit: &'static str,
    /// The base (A) value.
    pub before: f64,
    /// The B value.
    pub after: f64,
    /// The verdict; `None` for per-layer metrics, which have no bound.
    pub verdict: Option<Verdict>,
    /// For an exact per-layer metric: whether the two values are equal.
    pub exact_equal: Option<bool>,
}

/// Compares two records of one workload, metric by metric, in ledger
/// order. Metrics missing from either side are skipped.
pub fn diff(before: &Loaded, after: &Loaded) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let both = |name: &str| Some((before.value(name)?, after.value(name)?));
    for metric in END_TO_END {
        if let Some((a, b)) = both(metric.name) {
            rows.push(DiffRow {
                workload: before.workload.clone(),
                metric: metric.name.to_string(),
                unit: metric.unit,
                before: a,
                after: b,
                verdict: Some(judge(
                    metric.better.worsening(a, b),
                    metric.bound,
                    before.spread(metric.name),
                )),
                exact_equal: None,
            });
        }
    }
    for layer in per_layer() {
        if let Some((a, b)) = both(&layer.name) {
            rows.push(DiffRow {
                workload: before.workload.clone(),
                metric: layer.name.clone(),
                unit: layer.unit,
                before: a,
                after: b,
                verdict: None,
                exact_equal: layer.exact.then_some(a == b),
            });
        }
    }
    rows
}

/// Prints diff rows as the before/after table: every ratio with its base.
pub fn print_diff(rows: &[DiffRow]) {
    println!(
        "{:<14} {:<40} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for row in rows {
        let ratio = if row.before == 0.0 {
            "-".to_string()
        } else {
            format!("{:.3}", row.after / row.before)
        };
        let verdict = match (row.verdict, row.exact_equal) {
            (Some(v), _) => v.word(),
            (None, Some(true)) => "exact: equal",
            (None, Some(false)) => "exact: DIFFERS",
            (None, None) => "",
        };
        println!(
            "{:<14} {:<40} {:>16.6} {:>16.6} {:>8}  {} [{}]",
            row.workload, row.metric, row.before, row.after, ratio, verdict, row.unit
        );
    }
}

/// One row of `ledger repeat`: one end-to-end metric of one workload
/// over two sets of runs of the same build.
#[derive(Debug, Clone)]
pub struct RepeatRow {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Median of the first set.
    pub median_a: f64,
    /// Median of the second set.
    pub median_b: f64,
    /// How much worse the second median is, as a share of the first.
    pub gap: f64,
    /// Interquartile spread of each set as a share of its median (0
    /// with fewer than two runs per set).
    pub spread: [f64; 2],
    /// The metric's bound.
    pub bound: f64,
}

impl RepeatRow {
    /// Whether the row meets the benchmark's own acceptance rule: the
    /// second median no worse than the first by more than the bound,
    /// and — for every metric but `setup_s` — each set's spread within
    /// the bound.
    pub fn ok(&self) -> bool {
        let spreads_ok = self.metric == "setup_s" || self.spread.iter().all(|s| *s <= self.bound);
        self.gap <= self.bound && spreads_ok
    }
}

/// Builds the repeat table for one workload from each set's records.
pub fn repeat_rows(workload: &str, set_a: &[Loaded], set_b: &[Loaded]) -> Vec<RepeatRow> {
    let values = |set: &[Loaded], name: &str| -> Vec<f64> {
        set.iter().filter_map(|r| r.value(name)).collect()
    };
    let spread = |v: &[f64]| if v.len() >= 2 { spread_share(v) } else { 0.0 };
    END_TO_END
        .iter()
        .filter_map(|metric| {
            let (a, b) = (values(set_a, metric.name), values(set_b, metric.name));
            if a.is_empty() || b.is_empty() {
                return None;
            }
            let (median_a, median_b) = (median(&a), median(&b));
            Some(RepeatRow {
                workload: workload.to_string(),
                metric: metric.name,
                median_a,
                median_b,
                gap: metric.better.worsening(median_a, median_b),
                spread: [spread(&a), spread(&b)],
                bound: metric.bound,
            })
        })
        .collect()
}

/// Names of the exact per-layer metrics on which two traced records
/// of the same workload and seed disagree.
pub fn exact_mismatches(a: &Loaded, b: &Loaded) -> Vec<String> {
    per_layer()
        .into_iter()
        .filter(|def| def.exact && a.value(&def.name) != b.value(&def.name))
        .map(|def| def.name)
        .collect()
}

/// Prints repeat rows.
pub fn print_repeat(rows: &[RepeatRow]) {
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>8} {:>9} {:>9} {:>6}  ok",
        "workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound"
    );
    for row in rows {
        println!(
            "{:<14} {:<14} {:>16.4} {:>16.4} {:>+8.3} {:>9.3} {:>9.3} {:>6.2}  {}",
            row.workload,
            row.metric,
            row.median_a,
            row.median_b,
            row.gap,
            row.spread[0],
            row.spread[1],
            row.bound,
            if row.ok() { "ok" } else { "FAIL" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_bound_and_spread() {
        assert_eq!(judge(0.05, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(judge(0.12, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(-0.12, 0.10, 0.0), Verdict::Better);
        // A gap inside the base run's own spread is not resolved either.
        assert_eq!(judge(-0.12, 0.10, 0.20), Verdict::Unresolved);
    }

    #[test]
    fn aliases_name_the_issues_metrics() {
        assert_eq!(
            alias(Workload::ColdSingle, "phase1_per_s").as_deref(),
            Some("det_decisions_per_s")
        );
        assert_eq!(
            alias(Workload::ShmemPersona, "phase2_per_s").as_deref(),
            Some("persona_ops_per_s_t2")
        );
        assert!(alias(Workload::HotZipf, "phase2_p50_ns")
            .unwrap()
            .starts_with("rt p50_ns"));
        assert_eq!(alias(Workload::HotZipf, "setup_s"), None);
        assert_eq!(alias(Workload::HotZipf, "peak_rss_mb"), None);
    }

    fn loaded(per_s: f64, digest: f64) -> Loaded {
        let text = format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\
             \"phase1_per_s\": {{\"value\": {per_s}, \"unit\": \"1/s\"}}, \
             \"shard.fact_digest\": {{\"value\": {digest}, \"unit\": \"hash32\"}}}}, \
             \"workload\": \"cold-single\", \"trace\": 0, \
             \"rep_spread\": {{\"phase1_per_s\": 0.02}}}}"
        );
        Loaded::parse(&text).unwrap()
    }

    #[test]
    fn diff_rows_carry_base_verdict_and_exactness() {
        let rows = diff(&loaded(1000.0, 7.0), &loaded(1300.0, 8.0));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "phase1_per_s");
        assert_eq!(rows[0].verdict, Some(Verdict::Better));
        assert_eq!((rows[0].before, rows[0].after), (1000.0, 1300.0));
        assert_eq!(rows[1].exact_equal, Some(false));
        let same = diff(&loaded(1000.0, 7.0), &loaded(1050.0, 7.0));
        assert_eq!(same[0].verdict, Some(Verdict::Unresolved));
        assert_eq!(same[1].exact_equal, Some(true));
    }

    #[test]
    fn repeat_rows_apply_the_acceptance_rule() {
        let set = |values: &[f64]| values.iter().map(|&v| loaded(v, 7.0)).collect::<Vec<_>>();
        let steady = repeat_rows(
            "cold-single",
            &set(&[100.0, 101.0, 99.0, 100.5]),
            &set(&[98.0, 99.0, 97.0, 98.5]),
        );
        assert_eq!(steady.len(), 1);
        assert!(steady[0].ok(), "{:?}", steady[0]);
        assert!((steady[0].gap - 0.02).abs() < 0.005);
        // The second set 40% slower: over any bound the contract allows.
        let slower = repeat_rows("cold-single", &set(&[100.0, 101.0]), &set(&[60.0, 61.0]));
        assert!(!slower[0].ok());
        // Medians agree but one set is scattered: also refused.
        let noisy = repeat_rows(
            "cold-single",
            &set(&[40.0, 100.0, 160.0, 100.0]),
            &set(&[100.0; 4]),
        );
        assert!(noisy[0].spread[0] > 0.25 && !noisy[0].ok());
        // A faster second set is fine.
        assert!(repeat_rows("cold-single", &set(&[100.0]), &set(&[150.0]))[0].ok());
    }

    #[test]
    fn exact_metrics_must_agree_between_sets() {
        assert!(exact_mismatches(&loaded(1.0, 7.0), &loaded(2.0, 7.0)).is_empty());
        assert_eq!(
            exact_mismatches(&loaded(1.0, 7.0), &loaded(1.0, 8.0)),
            ["shard.fact_digest"]
        );
    }

    #[test]
    fn loading_rejects_a_record_without_metrics() {
        assert!(Loaded::parse("{\"correct\": true}").is_err());
        assert!(Loaded::parse("not json").is_err());
    }
}
