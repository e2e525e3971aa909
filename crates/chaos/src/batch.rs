//! Batch execution: thousands of seed-randomized scenarios on the sweep
//! worker pool, the invariant watchdog as online oracle, unexpected
//! violations auto-shrunk to minimal reproducers.
//!
//! The pool is [`gcs_sweep::stream_pool`], so a batch inherits the sweep's
//! guarantees: panic isolation (a scenario that panics is a `failed` entry,
//! not a dead batch) and deterministic seed-order result emission
//! regardless of worker count. Verdicts are folded into the summary as they
//! are emitted; only findings are kept, and shrunk after the pool.

use gcs_sweep::{stream_pool, JobOutcome, PoolProgress};

use crate::random::random_spec;
use crate::run::{run_scenario, ScenarioOutcome};
use crate::shrink::{shrink, ShrinkOutcome};
use crate::spec::ChaosSpec;

/// Batch parameters.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Scenarios to run.
    pub scenarios: usize,
    /// First seed; scenario `i` uses `start_seed + i`.
    pub start_seed: u64,
    /// Worker threads for the pool (`0` ⇒ available parallelism).
    pub workers: usize,
    /// Whether to auto-shrink findings to minimal reproducers.
    pub shrink: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            scenarios: 1000,
            start_seed: 1,
            workers: 0,
            shrink: true,
        }
    }
}

/// One batch scenario's verdict, kept deliberately small (the full spec is
/// reproducible from the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioVerdict {
    /// The scenario's seed.
    pub seed: u64,
    /// Violation tag + node + time, if the watchdog tripped.
    pub violation: Option<(String, usize, f64)>,
    /// Whether the schedule contained an out-of-model clause.
    pub expected: bool,
}

impl ScenarioVerdict {
    fn from_outcome(seed: u64, o: &ScenarioOutcome) -> Self {
        ScenarioVerdict {
            seed,
            violation: o
                .violation
                .as_ref()
                .map(|v| (v.kind().to_string(), v.node(), v.time())),
            expected: o.violation_expected,
        }
    }

    /// An unexpected violation — a finding.
    pub fn finding(&self) -> bool {
        self.violation.is_some() && !self.expected
    }
}

/// An unexpected violation, with its minimal reproducer when shrinking was
/// enabled.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Seed of the violating scenario.
    pub seed: u64,
    /// The full generated scenario.
    pub spec: ChaosSpec,
    /// Violation tag of the original execution.
    pub kind: String,
    /// The shrink result (`None` when shrinking is disabled or the shrink
    /// itself errored — the raw spec above still reproduces).
    pub shrunk: Option<ShrinkOutcome>,
}

/// A finished batch.
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Scenarios executed (including failures).
    pub scenarios: usize,
    /// Scenarios with no violation.
    pub clean: usize,
    /// Violations the fault taxonomy allows (out-of-model clauses).
    pub expected_violations: usize,
    /// Unexpected violations, in seed order.
    pub findings: Vec<Finding>,
    /// `(seed, error)` for scenarios that failed to execute, in seed order.
    pub failed: Vec<(u64, String)>,
}

/// Runs the batch. Results are deterministic in content and order for a
/// given `(scenarios, start_seed)` regardless of `workers`.
pub fn run_batch(cfg: &BatchConfig) -> BatchSummary {
    let start = cfg.start_seed;
    let mut summary = BatchSummary {
        scenarios: cfg.scenarios,
        ..BatchSummary::default()
    };
    // `(seed, violation kind)` of every finding, in seed order.
    let mut findings = Vec::new();
    stream_pool(
        cfg.scenarios,
        cfg.workers,
        |i| start + i as u64,
        |&seed| run_scenario(&random_spec(seed)).map(|o| ScenarioVerdict::from_outcome(seed, &o)),
        |seed, outcome| match outcome {
            JobOutcome::Completed(v) if v.finding() => {
                let (kind, ..) = v.violation.expect("finding has violation");
                findings.push((seed, kind));
            }
            JobOutcome::Completed(v) if v.violation.is_some() => {
                summary.expected_violations += 1;
            }
            JobOutcome::Completed(_) => summary.clean += 1,
            JobOutcome::Failed(e) => summary.failed.push((seed, e)),
        },
        None::<fn(PoolProgress)>,
    );
    summary.findings = findings
        .into_iter()
        .map(|(seed, kind)| {
            let spec = random_spec(seed);
            let shrunk = cfg.shrink.then(|| shrink(&spec).ok()).flatten();
            Finding {
                seed,
                spec,
                kind,
                shrunk,
            }
        })
        .collect();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scenarios: usize, workers: usize) -> BatchConfig {
        BatchConfig {
            scenarios,
            start_seed: 1,
            workers,
            shrink: false,
        }
    }

    #[test]
    fn batch_accounts_every_scenario() {
        let s = run_batch(&cfg(40, 2));
        assert_eq!(s.scenarios, 40);
        assert_eq!(
            s.clean + s.expected_violations + s.findings.len() + s.failed.len(),
            40
        );
        assert!(s.failed.is_empty(), "failures: {:?}", s.failed);
    }

    #[test]
    fn batch_is_worker_count_independent() {
        let a = run_batch(&cfg(30, 1));
        let b = run_batch(&cfg(30, 4));
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.expected_violations, b.expected_violations);
        assert_eq!(
            a.findings.iter().map(|f| f.seed).collect::<Vec<_>>(),
            b.findings.iter().map(|f| f.seed).collect::<Vec<_>>()
        );
    }
}
