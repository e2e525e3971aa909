//! Executing one chaos scenario: the shared [`Scenario`] substrate with
//! the fault schedule compiled onto it via [`gcs_adversary::ChaosDelay`],
//! observed by the invariant watchdog as the online oracle.

use gcs_analysis::WatchdogViolation;
use gcs_sim::EngineEvent;
use gcs_sweep::{JobResult, Scenario, ScenarioSpec, SinkSet};

use crate::spec::ChaosSpec;

/// Everything one scenario execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The execution's measurements, as a sweep job reports them.
    pub result: JobResult,
    /// The first invariant violation, if the watchdog tripped.
    pub violation: Option<WatchdogViolation>,
    /// Whether the schedule contains at least one clause that is *allowed*
    /// to break an invariant (out-of-model fault). A violation without such
    /// a clause is an **unexpected** violation — a finding.
    pub violation_expected: bool,
    /// The flight-recorder window at end of run, present only when the
    /// oracle tripped: the recent events leading up to the violation, in
    /// execution order, ready to dump as a JSONL forensic artifact.
    pub recorder_window: Option<Vec<EngineEvent>>,
}

impl ScenarioOutcome {
    /// A violation the fault taxonomy says should not have happened.
    pub fn unexpected(&self) -> bool {
        self.violation.is_some() && !self.violation_expected
    }
}

/// Runs `spec` to completion and reports what the oracle saw.
///
/// The outcome is a pure function of the spec: topology randomness, delay
/// randomness, rate walks, and every fault coin-flip all derive from
/// `spec.seed`, so the same spec reproduces the same outcome.
///
/// # Panics
///
/// Propagates an engine panic.
pub fn run_scenario(spec: &ChaosSpec) -> Result<ScenarioOutcome, String> {
    let scenario = Scenario::build(ScenarioSpec {
        topology: &spec.topology,
        eps: spec.eps,
        t: spec.t,
        sigma: spec.sigma,
        delay: &spec.delay,
        rates: &spec.rates,
        faults: spec.faults.clone(),
        seed: spec.seed,
        horizon: spec.horizon,
        horizon_per_diameter: 0.0,
    })?;
    let violation_expected = spec
        .faults
        .iter()
        .any(|c| c.violation_allowed(scenario.drift, Some(spec.t)));
    let mut sinks = SinkSet::new(&scenario.graph);
    sinks.watchdog = Some(scenario.watchdog());
    let out = scenario.run(&spec.algo, sinks, false)?;
    if let Some(payload) = out.panic {
        std::panic::resume_unwind(payload);
    }
    let violation = out
        .sinks
        .watchdog
        .as_ref()
        .and_then(|w| w.trip())
        .map(|trip| trip.violation.clone());
    let recorder_window = violation
        .is_some()
        .then(|| out.sinks.recorder.window_events());
    Ok(ScenarioOutcome {
        result: out.result(),
        violation,
        violation_expected,
        recorder_window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_adversary::FaultClause;

    fn spec_with(faults: &[&str]) -> ChaosSpec {
        ChaosSpec {
            topology: "path:6".into(),
            horizon: 40.0,
            seed: 11,
            faults: faults
                .iter()
                .map(|s| FaultClause::parse(s).unwrap())
                .collect(),
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn fault_free_scenario_is_clean_and_reproducible() {
        let spec = spec_with(&[]);
        let a = run_scenario(&spec).unwrap();
        let b = run_scenario(&spec).unwrap();
        assert_eq!(a, b);
        assert!(a.violation.is_none());
        assert!(!a.violation_expected);
        assert!(a.result.global_skew <= a.result.global_bound + 1e-9);
    }

    #[test]
    fn in_model_faults_do_not_trip_the_oracle() {
        // Drops, duplicates, and a clog within 𝒯 are all in-model: A^opt's
        // invariants must hold, and a trip here would be a real finding.
        let spec = spec_with(&[
            "drop:5..20:*:0.3",
            "dup:0..40:*:1:0.05",
            "clog:10..25:*:0.2",
        ]);
        let out = run_scenario(&spec).unwrap();
        assert!(!out.violation_expected);
        assert!(
            out.violation.is_none(),
            "unexpected violation: {:?}",
            out.violation
        );
        assert!(out.result.dropped_faults > 0);
        assert!(out.result.duplicated > 0);
    }

    #[test]
    fn out_of_model_rate_attack_trips_and_is_expected() {
        // Rate 0.9 under ε = 0.02 is far outside the drift bounds the
        // watchdog enforces: Condition (1)/(2) must break, and the fault
        // taxonomy must classify the violation as expected.
        let spec = spec_with(&["rate:5..40:0..1:0.9"]);
        let out = run_scenario(&spec).unwrap();
        assert!(out.violation_expected);
        assert!(!out.unexpected());
        let v = out.violation.expect("rate attack must trip the watchdog");
        assert!(matches!(v.kind(), "envelope" | "progress"));
    }

    #[test]
    fn violations_carry_a_recorder_window() {
        let spec = spec_with(&["rate:5..40:0..1:0.9"]);
        let out = run_scenario(&spec).unwrap();
        let window = out
            .recorder_window
            .as_ref()
            .expect("a tripped scenario must attach its recorder window");
        assert!(!window.is_empty());
        // Clean scenarios attach nothing — the window is a violation artifact.
        let clean = run_scenario(&spec_with(&[])).unwrap();
        assert!(clean.recorder_window.is_none());
    }

    #[test]
    fn faulted_outcome_is_reproducible() {
        let spec = spec_with(&["drop:5..15:*:0.2", "clog:8..20:*:0.15"]);
        let a = run_scenario(&spec).unwrap();
        let b = run_scenario(&spec).unwrap();
        assert_eq!(a, b, "same spec, same observable outcome");
    }

    #[test]
    fn bad_specs_error_cleanly() {
        let mut spec = spec_with(&[]);
        spec.algo = "quantum".into();
        assert!(run_scenario(&spec).is_err());
        let mut spec = spec_with(&[]);
        spec.topology = "moebius:5".into();
        assert!(run_scenario(&spec).is_err());
    }

    #[test]
    fn nan_and_negative_horizons_are_rejected_not_clamped() {
        for (text, shown) in [("nan", "NaN"), ("-5", "-5")] {
            let spec = ChaosSpec::parse(&format!("horizon = {text}\n")).unwrap();
            assert_eq!(
                run_scenario(&spec),
                Err(format!("horizon must be non-negative, got {shown}"))
            );
        }
        let mut spec = spec_with(&[]);
        spec.horizon = 0.0;
        assert_eq!(run_scenario(&spec).unwrap().result.horizon, 0.0);
    }
}
