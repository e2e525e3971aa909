//! Dedicated violation-path tests for the invariant watchdog: for each
//! monitored invariant — Condition (1), Condition (2), Definition 5.6 — a
//! crafted illegal execution must trip *that* check.
//!
//! The executions are fed to the sink directly (records + snapshots), so
//! each test controls precisely which invariant breaks first: the watchdog
//! checks Condition (1), then Condition (2), then Definition 5.6 on every
//! snapshot, and the crafted clock paths keep the earlier checks green.

use gcs_analysis::{InvariantWatchdog, WatchdogViolation};
use gcs_core::Params;
use gcs_graph::{topology, NodeId};
use gcs_sim::{EngineEvent, EventSink};
use gcs_time::DriftBounds;

const EPS: f64 = 0.02;

fn watchdog(n: usize) -> InvariantWatchdog {
    let params = Params::recommended(EPS, 0.2).unwrap();
    let drift = DriftBounds::new(EPS).unwrap();
    InvariantWatchdog::new(&topology::path(n), params, drift)
}

fn wake(node: usize, t: f64) -> EngineEvent {
    EngineEvent::Wake {
        node: NodeId(node),
        t,
        hw: 0.0,
    }
}

#[test]
fn too_fast_clock_trips_condition_1_upper_envelope() {
    let mut w = watchdog(2);
    w.record(&wake(0, 0.0));
    w.record(&wake(1, 0.0));
    // (1 + ε)t = 1.02 at t = 1: a logical clock at 1.05 is impossibly fast.
    w.snapshot(1.0, &[1.05, 1.0], 0);
    assert!(w.tripped());
    let trip = w.trip().unwrap();
    match *trip {
        WatchdogViolation::Envelope {
            node,
            t,
            logical,
            high_margin,
            ..
        } => {
            assert_eq!(node, 0);
            assert_eq!(t, 1.0);
            assert_eq!(logical, 1.05);
            assert!(high_margin < 0.0, "upper envelope must be the broken side");
        }
        ref other => panic!("expected Condition (1) Envelope, got {other:?}"),
    }
    assert!(trip.render().contains("Condition (1)"));
}

#[test]
fn too_slow_clock_trips_condition_1_lower_envelope() {
    let mut w = watchdog(2);
    w.record(&wake(0, 0.0));
    w.record(&wake(1, 0.0));
    // (1 − ε)(t − t_v) = 9.8 at t = 10: a clock at 9.5 fell behind the
    // slowest legal hardware.
    w.snapshot(10.0, &[9.5, 10.0], 0);
    assert!(w.tripped());
    match *w.trip().unwrap() {
        WatchdogViolation::Envelope {
            node, low_margin, ..
        } => {
            assert_eq!(node, 0);
            assert!(low_margin < 0.0, "lower envelope must be the broken side");
        }
        ref other => panic!("expected Condition (1) Envelope, got {other:?}"),
    }
}

#[test]
fn stalled_clock_trips_condition_2_within_the_envelope() {
    let mut w = watchdog(2);
    w.record(&wake(0, 0.0));
    w.record(&wake(1, 0.0));
    // Node 0 slides from the top of the Condition-(1) band to its bottom:
    // every sample is inside the envelope, but the increment 10.15 → 10.1
    // over 0.3s of real time is far below α = 1 − ε, so only Condition (2)
    // can fire.
    w.snapshot(10.0, &[10.15, 10.0], 0);
    assert!(!w.tripped(), "{:?}", w.trip());
    w.snapshot(10.3, &[10.1, 10.3], 0);
    assert!(w.tripped());
    match *w.trip().unwrap() {
        WatchdogViolation::Progress {
            node,
            t,
            min_margin,
            ..
        } => {
            assert_eq!(node, 0);
            assert_eq!(t, 10.3);
            assert!(min_margin < 0.0, "the α side must be the broken one");
        }
        ref other => panic!("expected Condition (2) Progress, got {other:?}"),
    }
    assert!(w.trip().unwrap().render().contains("Condition (2)"));
}

#[test]
fn jumping_clock_trips_condition_2_max_rate() {
    let mut w = watchdog(2);
    w.record(&wake(0, 0.0));
    w.record(&wake(1, 0.0));
    // Bottom of the band to its top in 0.1s: rate 4 ≫ β, envelope intact.
    w.snapshot(10.0, &[9.85, 10.0], 0);
    assert!(!w.tripped(), "{:?}", w.trip());
    w.snapshot(10.1, &[10.25, 10.1], 0);
    assert!(w.tripped());
    match *w.trip().unwrap() {
        WatchdogViolation::Progress {
            node, max_margin, ..
        } => {
            assert_eq!(node, 0);
            assert!(max_margin < 0.0, "the β side must be the broken one");
        }
        ref other => panic!("expected Condition (2) Progress, got {other:?}"),
    }
}

#[test]
fn drifting_pair_trips_legal_state_while_conditions_hold() {
    let mut w = watchdog(2);
    w.record(&wake(0, 0.0));
    w.record(&wake(1, 0.0));
    // Both nodes stay strictly inside the Condition-(1) band and move at
    // legal per-sample rates, but their gap grows like ~2εt: eventually
    // only the Definition 5.6 bound is the one that breaks.
    let ahead = (1.0 + EPS) * 0.999;
    let behind = (1.0 - EPS) * 1.001;
    let mut tripped_at = None;
    for step in 1..=20_000u32 {
        let t = step as f64;
        w.snapshot(t, &[ahead * t, behind * t], 0);
        if w.tripped() {
            tripped_at = Some(t);
            break;
        }
    }
    let t = tripped_at.expect("growing neighbour skew must trip Def. 5.6");
    match *w.trip().unwrap() {
        WatchdogViolation::LegalState(ref v) => {
            assert_eq!((v.v, v.w), (0, 1), "node 0 is ahead of node 1");
            assert_eq!(v.distance, 1);
            assert!(v.skew > v.bound, "violation must exceed its bound");
            assert_eq!(v.t, t);
        }
        ref other => panic!("expected Def. 5.6 LegalState, got {other:?}"),
    }
    assert!(w.trip().unwrap().render().contains("Def. 5.6"));
}
