//! Watchdog-as-oracle coverage for partitions that heal.
//!
//! A partition is an out-of-model fault (the paper assumes every message
//! arrives within 𝒯̂), so the Definition 5.6 legal-state invariant is
//! *allowed* to break while it lasts — whether it actually does depends on
//! how long the halves drift apart. These tests pin both sides of that
//! line, deterministically.

use gcs_adversary::FaultClause;
use gcs_chaos::{run_scenario, ChaosSpec, ScenarioOutcome};

/// `path:8` under `const` delay with `split` rates (the fast half drifts at
/// `1 + ε` against the slow half's `1 − ε`).
fn partition_spec(start: f64, end: f64, horizon: f64) -> ChaosSpec {
    ChaosSpec {
        topology: "path:8".into(),
        algo: "aopt".into(),
        eps: 0.02,
        t: 0.2,
        delay: "const".into(),
        rates: "split".into(),
        horizon,
        seed: 5,
        faults: vec![FaultClause::parse(&format!("partition:{start}..{end}:0..4")).unwrap()],
        ..ChaosSpec::default()
    }
}

#[test]
fn long_partition_trips_legal_state_then_heals() {
    // Cut the path for 75 time units: the halves drift ~2ε · 75 = 3.0
    // apart, far beyond the Def. 5.6 neighbour bound at the cut edge, and
    // A^opt cannot correct across a severed edge. The watchdog must trip —
    // and the violation must be classified as expected (out-of-model).
    let spec = partition_spec(5.0, 80.0, 100.0);
    let out = run_scenario(&spec).unwrap();
    let v = out
        .violation
        .as_ref()
        .expect("a 75-unit partition must break the legal state");
    assert_eq!(v.kind(), "legal");
    assert!(out.violation_expected, "partitions are out-of-model");
    assert!(!out.unexpected());
    // The trip happens while the partition is open, not after the heal.
    assert!(
        v.time() > 5.0 && v.time() < 80.0,
        "tripped at t={}",
        v.time()
    );
}

#[test]
fn long_partition_outcome_is_reproducible() {
    let spec = partition_spec(5.0, 80.0, 100.0);
    let first = run_scenario(&spec).unwrap();
    let again = run_scenario(&spec).unwrap();
    // Same measurements, verdict and frozen flight-recorder window.
    assert_eq!(
        first.result, again.result,
        "partition chaos must be deterministic"
    );
    assert_eq!(first.violation_expected, again.violation_expected);
    let window = |o: &ScenarioOutcome| {
        let recorder = o
            .recorder
            .as_ref()
            .expect("a tripped run keeps its recorder");
        (recorder.recorded(), recorder.window_events())
    };
    assert_eq!(window(&first), window(&again));
    // Same violation, bit-for-bit.
    let (a, b) = (first.violation.unwrap(), again.violation.unwrap());
    assert_eq!(a.kind(), b.kind());
    assert_eq!(a.node(), b.node());
    assert_eq!(a.time().to_bits(), b.time().to_bits());
}

#[test]
fn short_partition_that_heals_early_never_trips() {
    // The same cut held only 5 time units: the halves drift at most
    // ~2ε · 5 = 0.2 apart — comfortably inside the legal-state bound —
    // and after the heal A^opt re-converges. Provably no trip.
    let spec = partition_spec(5.0, 10.0, 100.0);
    let out = run_scenario(&spec).unwrap();
    assert!(
        out.violation.is_none(),
        "short heal must stay legal: {:?}",
        out.violation
    );
    assert!(out.result.global_skew <= out.result.global_bound + 1e-9);
}

#[test]
fn messages_resume_after_the_heal() {
    // Drop accounting proves the partition was real and that traffic
    // resumed: the cut edge drops messages only inside the window.
    let spec = partition_spec(5.0, 80.0, 100.0);
    let out = run_scenario(&spec).unwrap();
    assert!(out.result.dropped_faults > 0, "the cut must drop messages");
    assert_eq!(out.result.dropped_model, 0);
    let healed = partition_spec(5.0, 10.0, 100.0);
    let healed_out = run_scenario(&healed).unwrap();
    assert!(
        healed_out.result.dropped_faults < out.result.dropped_faults,
        "a shorter cut must drop fewer messages"
    );
}
