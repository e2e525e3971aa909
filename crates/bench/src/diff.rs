//! Bench-regression gating: parse two `BENCH_*.json` artifacts
//! (`gcs-bench-result/v1`) and compare them metric-by-metric.
//!
//! The comparison is **direction-aware** — each metric family declares
//! whether bigger numbers are better (`events_per_sec/*`, `speedup/*`) or
//! worse (`wall_seconds/*`, `allocs_per_event/*`, `median_seconds/*`,
//! `overhead_ratio/*`); everything else is informational and can never
//! fail the gate. A metric regresses when it moves in the bad direction by
//! more than the relative tolerance. Near-zero values (both sides within
//! the absolute floor of each other) always compare as unchanged, so
//! zero-alloc metrics don't explode the relative math.
//!
//! Speedup metrics are machine-dependent in a way the rest are not: on a
//! single-core host a `speedup/threads=8` number measures scheduler churn,
//! nothing else. When either artifact's config says `cores`/`host_cores`
//! is `1`, every `speedup/*` metric is skipped — which also de-fangs
//! artifacts committed from single-core machines. The same applies when
//! the two artifacts disagree on `cores`/`host_cores`: a speedup curve
//! from a 4-core box is incomparable with one from a 16-core box, so
//! `speedup/*` rows are skipped (with a note) rather than gated.
//!
//! Config differences are reported as notes, never failures: the expected
//! CI use compares a quick-mode run against a committed full-mode
//! artifact, and the common metrics are still worth gating.

use std::fmt::Write as _;

use gcs_forensics::{parse_json, Json};

/// A parsed `gcs-bench-result/v1` artifact.
#[derive(Debug, Clone)]
pub struct BenchArtifact {
    /// The bench name (`BENCH_<name>.json`).
    pub bench: String,
    /// Configuration knobs, in artifact order.
    pub config: Vec<(String, String)>,
    /// Measurements, in artifact order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchArtifact {
    /// Looks up a config knob.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// True when the artifact declares it was produced on a single core
    /// (`cores` or `host_cores` config knob).
    pub fn single_core(&self) -> bool {
        self.config_value("cores") == Some("1") || self.config_value("host_cores") == Some("1")
    }
}

/// Parses one artifact, validating the schema tag.
pub fn parse_artifact(text: &str) -> Result<BenchArtifact, String> {
    let v = parse_json(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "gcs-bench-result/v1" {
        return Err(format!(
            "not a gcs-bench-result/v1 artifact (schema: {schema:?})"
        ));
    }
    let bench = v
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing `bench` name")?
        .to_string();
    let mut config = Vec::new();
    if let Some(Json::Obj(fields)) = v.get("config") {
        for (k, val) in fields {
            config.push((
                k.clone(),
                val.as_str().map(str::to_string).unwrap_or_default(),
            ));
        }
    }
    let mut metrics = Vec::new();
    if let Some(Json::Obj(fields)) = v.get("metrics") {
        for (k, val) in fields {
            let num = val
                .as_f64()
                .ok_or_else(|| format!("metric {k} is not a number"))?;
            metrics.push((k.clone(), num));
        }
    }
    Ok(BenchArtifact {
        bench,
        config,
        metrics,
    })
}

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, speedup).
    HigherIsBetter,
    /// Smaller is better (wall time, allocations, overhead).
    LowerIsBetter,
    /// Informational; never gates.
    Neutral,
}

/// Classifies a metric by its name prefix (the repo-wide convention:
/// `family/qualifiers`).
pub fn direction(name: &str) -> Direction {
    let family = name.split('/').next().unwrap_or(name);
    match family {
        "events_per_sec"
        | "events_per_sec_per_core"
        | "speedup"
        | "throughput"
        | "jobs_per_sec"
        | "cache_hit_ratio"
        | "cache_speedup" => Direction::HigherIsBetter,
        "wall_seconds"
        | "median_seconds"
        | "allocs_per_event"
        | "allocs_per_event_steady"
        | "overhead_ratio"
        | "latency_ms" => Direction::LowerIsBetter,
        _ => Direction::Neutral,
    }
}

/// Outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance (or informational).
    Ok,
    /// Moved in the good direction by more than the tolerance.
    Improved,
    /// Moved in the bad direction by more than the tolerance — gates.
    Regressed,
    /// Not compared (single-core speedup skip).
    Skipped,
    /// Present only in the old artifact.
    OnlyOld,
    /// Present only in the new artifact.
    OnlyNew,
}

/// One row of the regression table.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric name.
    pub metric: String,
    /// Old value, if present.
    pub old: Option<f64>,
    /// New value, if present.
    pub new: Option<f64>,
    /// Relative change `(new - old) / |old|`; 0 when not comparable.
    pub change: f64,
    /// The metric's gating direction.
    pub direction: Direction,
    /// Comparison outcome.
    pub status: Status,
}

/// The full comparison of two artifacts.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// Bench name both artifacts agree on.
    pub bench: String,
    /// Human-readable notes (config drift, speedup skips).
    pub notes: Vec<String>,
    /// Per-metric rows, old-artifact order first, then new-only metrics.
    pub rows: Vec<DiffRow>,
    /// The relative tolerance used.
    pub tolerance: f64,
}

/// Values within this absolute distance always compare as unchanged,
/// guarding the relative math around zero (e.g. zero-alloc metrics).
pub const ABS_FLOOR: f64 = 1e-3;

/// Compares two parsed artifacts with the given relative tolerance
/// (`0.25` = 25 %).
///
/// Fails if the artifacts describe different benches — that is an operator
/// error, not a regression.
pub fn diff(old: &BenchArtifact, new: &BenchArtifact, tolerance: f64) -> Result<BenchDiff, String> {
    if old.bench != new.bench {
        return Err(format!(
            "artifacts describe different benches: {:?} vs {:?}",
            old.bench, new.bench
        ));
    }
    assert!(
        tolerance >= 0.0 && tolerance.is_finite(),
        "invalid tolerance {tolerance}"
    );
    let mut notes = Vec::new();
    for (k, ov) in &old.config {
        match new.config_value(k) {
            Some(nv) if nv == ov => {}
            Some(nv) => notes.push(format!("config {k}: {ov:?} -> {nv:?}")),
            None => notes.push(format!("config {k}: {ov:?} -> (absent)")),
        }
    }
    for (k, nv) in &new.config {
        if old.config_value(k).is_none() {
            notes.push(format!("config {k}: (absent) -> {nv:?}"));
        }
    }
    let cores_differ = old.config_value("cores") != new.config_value("cores")
        || old.config_value("host_cores") != new.config_value("host_cores");
    let skip_speedup = old.single_core() || new.single_core() || cores_differ;
    if old.single_core() || new.single_core() {
        notes.push(
            "single-core artifact: speedup/* metrics skipped (they measure \
             scheduler churn, not scaling)"
                .to_string(),
        );
    } else if cores_differ {
        notes.push(
            "artifacts disagree on cores: speedup/* metrics skipped \
             (incomparable machine classes)"
                .to_string(),
        );
    }

    let mut rows = Vec::new();
    for (name, ov) in &old.metrics {
        let dir = direction(name);
        let row = match new.metric(name) {
            None => DiffRow {
                metric: name.clone(),
                old: Some(*ov),
                new: None,
                change: 0.0,
                direction: dir,
                status: Status::OnlyOld,
            },
            Some(nv) => {
                let skipped = skip_speedup && name.split('/').next() == Some("speedup");
                let change = if ov.abs() > 0.0 {
                    (nv - ov) / ov.abs()
                } else {
                    0.0
                };
                let status = if skipped {
                    Status::Skipped
                } else if (nv - ov).abs() <= ABS_FLOOR {
                    Status::Ok
                } else {
                    let moved = (nv - ov) / ov.abs().max(ABS_FLOOR);
                    match dir {
                        Direction::Neutral => Status::Ok,
                        Direction::HigherIsBetter if moved < -tolerance => Status::Regressed,
                        Direction::HigherIsBetter if moved > tolerance => Status::Improved,
                        Direction::LowerIsBetter if moved > tolerance => Status::Regressed,
                        Direction::LowerIsBetter if moved < -tolerance => Status::Improved,
                        _ => Status::Ok,
                    }
                };
                DiffRow {
                    metric: name.clone(),
                    old: Some(*ov),
                    new: Some(nv),
                    change,
                    direction: dir,
                    status,
                }
            }
        };
        rows.push(row);
    }
    for (name, nv) in &new.metrics {
        if old.metric(name).is_none() {
            rows.push(DiffRow {
                metric: name.clone(),
                old: None,
                new: Some(*nv),
                change: 0.0,
                direction: direction(name),
                status: Status::OnlyNew,
            });
        }
    }
    Ok(BenchDiff {
        bench: old.bench.clone(),
        notes,
        rows,
        tolerance,
    })
}

impl BenchDiff {
    /// Number of regressed metrics; non-zero means the gate fails.
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.status == Status::Regressed)
            .count()
    }

    /// Renders the regression table plus notes and verdict.
    pub fn render(&self) -> String {
        fn val(v: Option<f64>) -> String {
            match v {
                Some(v) => format!("{v:.6}"),
                None => "-".to_string(),
            }
        }
        let mut out = format!(
            "bench diff: {} (tolerance {:.0}%)\n",
            self.bench,
            self.tolerance * 100.0
        );
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = writeln!(
            out,
            "{:<width$} {:>16} {:>16} {:>9}  status",
            "metric", "old", "new", "change"
        );
        for r in &self.rows {
            let status = match r.status {
                Status::Ok => "ok",
                Status::Improved => "improved",
                Status::Regressed => "REGRESSED",
                Status::Skipped => "skipped",
                Status::OnlyOld => "only-old",
                Status::OnlyNew => "only-new",
            };
            let change = if r.old.is_some() && r.new.is_some() {
                format!("{:+.1}%", r.change * 100.0)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<width$} {:>16} {:>16} {:>9}  {status}",
                r.metric,
                val(r.old),
                val(r.new),
                change,
            );
        }
        let regressions = self.regressions();
        if regressions > 0 {
            let _ = writeln!(out, "FAIL: {regressions} metric(s) regressed");
        } else {
            let _ = writeln!(out, "OK: no regressions");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenchReport;

    fn artifact(cores: &str, metrics: &[(&str, f64)]) -> BenchArtifact {
        let mut r = BenchReport::new("sweep_scaling");
        r.config("cores", cores);
        for (k, v) in metrics {
            r.metric(k, *v);
        }
        parse_artifact(&r.to_json()).expect("own reports parse")
    }

    #[test]
    fn parses_own_report_format() {
        let a = artifact("4", &[("events_per_sec/n=64", 1e6), ("windows", 98.0)]);
        assert_eq!(a.bench, "sweep_scaling");
        assert_eq!(a.config_value("cores"), Some("4"));
        assert_eq!(a.metric("windows"), Some(98.0));
        assert!(!a.single_core());
    }

    #[test]
    fn rejects_foreign_schema() {
        assert!(parse_artifact("{\"schema\":\"nope\"}").is_err());
        assert!(parse_artifact("not json").is_err());
    }

    #[test]
    fn throughput_collapse_regresses_and_gain_improves() {
        let old = artifact("4", &[("events_per_sec/n=64", 1.0e6)]);
        let slow = artifact("4", &[("events_per_sec/n=64", 0.4e6)]);
        let fast = artifact("4", &[("events_per_sec/n=64", 2.0e6)]);
        let d = diff(&old, &slow, 0.25).unwrap();
        assert_eq!(d.regressions(), 1);
        assert!(d.render().contains("REGRESSED"));
        let d = diff(&old, &fast, 0.25).unwrap();
        assert_eq!(d.regressions(), 0);
        assert_eq!(d.rows[0].status, Status::Improved);
    }

    #[test]
    fn lower_is_better_metrics_regress_upward() {
        let old = artifact("4", &[("wall_seconds/workers=1", 4.0)]);
        let worse = artifact("4", &[("wall_seconds/workers=1", 6.0)]);
        let better = artifact("4", &[("wall_seconds/workers=1", 2.0)]);
        assert_eq!(diff(&old, &worse, 0.25).unwrap().regressions(), 1);
        let d = diff(&old, &better, 0.25).unwrap();
        assert_eq!(d.regressions(), 0);
        assert_eq!(d.rows[0].status, Status::Improved);
    }

    #[test]
    fn within_tolerance_is_ok_and_neutral_never_gates() {
        let old = artifact("4", &[("events_per_sec/n=64", 1.0e6), ("windows", 98.0)]);
        let new = artifact("4", &[("events_per_sec/n=64", 0.9e6), ("windows", 42.0)]);
        let d = diff(&old, &new, 0.25).unwrap();
        assert_eq!(d.regressions(), 0);
        assert!(d.rows.iter().all(|r| r.status == Status::Ok));
    }

    #[test]
    fn single_core_skips_speedups_only() {
        let old = artifact(
            "1",
            &[
                ("speedup/n=64/threads=4", 1.5),
                ("events_per_sec/n=64", 1e6),
            ],
        );
        let new = artifact(
            "4",
            &[
                ("speedup/n=64/threads=4", 0.2), // would regress hard
                ("events_per_sec/n=64", 0.1e6),  // genuine regression
            ],
        );
        let d = diff(&old, &new, 0.25).unwrap();
        assert_eq!(d.rows[0].status, Status::Skipped);
        assert_eq!(d.rows[1].status, Status::Regressed);
        assert_eq!(d.regressions(), 1);
        assert!(d.notes.iter().any(|n| n.contains("speedup")));
    }

    #[test]
    fn differing_core_counts_skip_speedups_only() {
        let old = artifact(
            "4",
            &[
                ("speedup/n=64/threads=4", 1.5),
                ("events_per_sec/n=64", 1e6),
            ],
        );
        let new = artifact(
            "16",
            &[
                ("speedup/n=64/threads=4", 0.2), // incomparable, not gated
                ("events_per_sec/n=64", 0.1e6),  // genuine regression
            ],
        );
        let d = diff(&old, &new, 0.25).unwrap();
        assert_eq!(d.rows[0].status, Status::Skipped);
        assert_eq!(d.rows[1].status, Status::Regressed);
        assert_eq!(d.regressions(), 1);
        assert!(d.notes.iter().any(|n| n.contains("disagree on cores")));
    }

    #[test]
    fn near_zero_allocs_do_not_explode_relative_math() {
        let old = artifact("4", &[("allocs_per_event/n=64", 0.0)]);
        let same = artifact("4", &[("allocs_per_event/n=64", 0.0005)]);
        let leaky = artifact("4", &[("allocs_per_event/n=64", 0.5)]);
        assert_eq!(diff(&old, &same, 0.25).unwrap().regressions(), 0);
        assert_eq!(diff(&old, &leaky, 0.25).unwrap().regressions(), 1);
    }

    #[test]
    fn missing_metrics_and_config_drift_are_notes_not_failures() {
        let old = artifact(
            "4",
            &[("events_per_sec/n=64", 1e6), ("wall_seconds/x", 2.0)],
        );
        let mut r = BenchReport::new("sweep_scaling");
        r.config("cores", "4").config("quick", "true");
        r.metric("events_per_sec/n=64", 1e6);
        r.metric("events_per_sec/n=128", 2e6);
        let new = parse_artifact(&r.to_json()).unwrap();
        let d = diff(&old, &new, 0.25).unwrap();
        assert_eq!(d.regressions(), 0);
        assert!(d.rows.iter().any(|r| r.status == Status::OnlyOld));
        assert!(d.rows.iter().any(|r| r.status == Status::OnlyNew));
        assert!(d.notes.iter().any(|n| n.contains("config quick")));
    }

    #[test]
    fn mismatched_bench_names_error() {
        let old = artifact("4", &[]);
        let r = BenchReport::new("other_bench");
        let new = parse_artifact(&r.to_json()).unwrap();
        assert!(diff(&old, &new, 0.25).is_err());
    }
}
