//! Automatic execution minimization: given a scenario whose oracle trips,
//! find a locally-minimal variant that still trips the *same kind* of
//! violation, re-executing deterministically at every step.
//!
//! Three reduction passes run to a joint fixpoint:
//!
//! 1. **Clause ddmin** — classic delta debugging over the fault schedule:
//!    try ever-finer complements until no whole clause can be dropped;
//! 2. **Window reduction** — per clause, repeatedly halve the duration
//!    (pull `end` in) and bisect the window (push `start` out);
//! 3. **Horizon trimming** — halve the run horizon toward just past the
//!    violation.
//!
//! Every candidate is accepted or rejected by a full deterministic
//! re-execution, so the result is a pure function of the input spec —
//! same input → byte-identical minimal reproducer, the property the CI
//! shrinker-determinism check pins.

use gcs_adversary::FaultClause;
use gcs_analysis::WatchdogViolation;

use crate::run::run_scenario;
use crate::spec::{ChaosSpec, ExpectedViolation};

/// A finished minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkOutcome {
    /// The locally-minimal reproducer, with the reproduced violation
    /// recorded in `spec.violation` for replay verification.
    pub spec: ChaosSpec,
    /// The violation the minimal spec trips.
    pub violation: WatchdogViolation,
    /// Clauses in the input schedule.
    pub original_clauses: usize,
    /// Scenario executions spent shrinking (including the initial check).
    pub executions: usize,
}

/// Shrinks `spec` to a locally-minimal reproducer of its violation.
///
/// # Errors
///
/// Returns an error if the spec does not execute, or if it does not trip
/// the watchdog at all (nothing to shrink).
pub fn shrink(spec: &ChaosSpec) -> Result<ShrinkOutcome, String> {
    let mut executions = 0usize;
    let first = run_scenario(spec)?;
    executions += 1;
    let Some(v0) = first.violation else {
        return Err("scenario does not trip the watchdog; nothing to shrink".into());
    };
    let kind = v0.kind();
    let original_clauses = spec.faults.len();

    let mut current = spec.clone();
    current.violation = None;
    // `fails` re-executes a candidate and accepts it iff the same kind of
    // violation still occurs. Candidates that fail to *run* (e.g. a clause
    // combination the substrate rejects) are simply not accepted.
    let mut fails = |cand: &ChaosSpec, executions: &mut usize| -> bool {
        *executions += 1;
        run_scenario(cand)
            .ok()
            .and_then(|o| o.violation)
            .is_some_and(|v| v.kind() == kind)
    };

    // Pass 1: ddmin over whole clauses.
    current.faults = ddmin(
        &current,
        current.faults.clone(),
        &mut fails,
        &mut executions,
    );

    // Passes 2+3 loop with pass 1's greedy tail until nothing improves.
    loop {
        let mut improved = false;

        // Greedy single-clause drop (cheap re-check after window edits).
        let mut i = 0;
        while i < current.faults.len() {
            let mut cand = current.clone();
            cand.faults.remove(i);
            if fails(&cand, &mut executions) {
                current = cand;
                improved = true;
            } else {
                i += 1;
            }
        }

        // Window reduction per clause.
        for i in 0..current.faults.len() {
            loop {
                let FaultClause { start, end, .. } = current.faults[i];
                let mid = start + (end - start) / 2.0;
                if end - start <= 1.0 / 64.0 || mid <= start || mid >= end {
                    break;
                }
                // Halve the duration: [start, mid).
                let mut cand = current.clone();
                cand.faults[i].end = mid;
                if fails(&cand, &mut executions) {
                    current = cand;
                    improved = true;
                    continue;
                }
                // Bisect the window: [mid, end).
                let mut cand = current.clone();
                cand.faults[i].start = mid;
                if fails(&cand, &mut executions) {
                    current = cand;
                    improved = true;
                    continue;
                }
                break;
            }
        }

        // Horizon trimming.
        loop {
            let half = current.horizon / 2.0;
            if half < 1.0 {
                break;
            }
            let mut cand = current.clone();
            cand.horizon = half;
            if fails(&cand, &mut executions) {
                current = cand;
                improved = true;
            } else {
                break;
            }
        }

        if !improved {
            break;
        }
    }

    // Record the reproduced violation of the *minimal* spec so the fixture
    // carries its own replay oracle.
    let fin = run_scenario(&current)?;
    executions += 1;
    let violation = fin
        .violation
        .expect("minimal spec accepted by the oracle must still trip");
    current.violation = Some(ExpectedViolation {
        kind: violation.kind().to_string(),
        node: violation.node(),
        t: violation.time(),
    });

    Ok(ShrinkOutcome {
        spec: current,
        violation,
        original_clauses,
        executions,
    })
}

/// Zeller-style ddmin over the clause list: returns a subset that still
/// fails and from which no chunk at the final granularity can be removed.
fn ddmin(
    base: &ChaosSpec,
    mut clauses: Vec<FaultClause>,
    fails: &mut impl FnMut(&ChaosSpec, &mut usize) -> bool,
    executions: &mut usize,
) -> Vec<FaultClause> {
    let with = |faults: Vec<FaultClause>| -> ChaosSpec {
        let mut s = base.clone();
        s.faults = faults;
        s
    };
    let mut n = 2usize;
    while clauses.len() >= 2 {
        let chunk = clauses.len().div_ceil(n);
        let mut reduced = false;
        // Try each complement (the list minus one chunk).
        let mut start = 0;
        while start < clauses.len() {
            let end = (start + chunk).min(clauses.len());
            let mut complement = clauses.clone();
            complement.drain(start..end);
            if !complement.is_empty() && fails(&with(complement.clone()), executions) {
                clauses = complement;
                n = 2.max(n - 1);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= clauses.len() {
                break;
            }
            n = (n * 2).min(clauses.len());
        }
    }
    // A single remaining clause: check the empty schedule too (the
    // violation might come from the substrate alone, e.g. a baseline
    // algorithm that breaks invariants fault-free).
    if clauses.len() == 1 && fails(&with(Vec::new()), executions) {
        clauses.clear();
    }
    clauses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChaosSpec;
    use gcs_adversary::FaultClause;

    /// The crafted violating scenario the acceptance criterion asks for: a
    /// rate attack far outside the drift bounds buried among harmless
    /// in-model clauses.
    fn crafted() -> ChaosSpec {
        let faults = [
            "drop:2..30:*:0.1",
            "dup:0..40:*:1:0.05",
            "clog:12..22:*:0.15",
            "rate:5..40:0..2:0.9",
            "flap:20..30:*:2:0.1",
        ]
        .iter()
        .map(|s| FaultClause::parse(s).unwrap())
        .collect();
        ChaosSpec {
            topology: "path:6".into(),
            horizon: 60.0,
            seed: 13,
            faults,
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn shrink_isolates_the_guilty_clause() {
        let out = shrink(&crafted()).unwrap();
        assert_eq!(out.original_clauses, 5);
        // Only the out-of-model rate attack can break Condition (1)/(2);
        // every in-model clause must be shrunk away.
        assert_eq!(
            out.spec.faults.len(),
            1,
            "minimal spec: {}",
            out.spec.format()
        );
        assert!(matches!(
            out.spec.faults[0].kind,
            gcs_adversary::FaultKind::Rate { .. }
        ));
        assert!(out.spec.horizon < 60.0, "horizon should have been trimmed");
        let v = out.spec.violation.as_ref().unwrap();
        assert!(v.kind == "envelope" || v.kind == "progress");
        assert!(out.executions > 5);
    }

    #[test]
    fn shrink_is_deterministic_byte_for_byte() {
        let a = shrink(&crafted()).unwrap();
        let b = shrink(&crafted()).unwrap();
        assert_eq!(a.spec.format(), b.spec.format());
        assert_eq!(a.executions, b.executions);
    }

    #[test]
    fn minimal_spec_is_locally_minimal() {
        let out = shrink(&crafted()).unwrap();
        // Dropping the surviving clause must lose the violation.
        let mut cand = out.spec.clone();
        cand.faults.clear();
        cand.violation = None;
        let o = run_scenario(&cand).unwrap();
        assert!(o.violation.is_none());
    }

    #[test]
    fn clean_scenarios_refuse_to_shrink() {
        let spec = ChaosSpec {
            topology: "path:4".into(),
            horizon: 20.0,
            ..ChaosSpec::default()
        };
        let err = shrink(&spec).unwrap_err();
        assert!(err.contains("does not trip"));
    }
}
