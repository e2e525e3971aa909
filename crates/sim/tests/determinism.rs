//! Profiling must be purely observational: the exact same execution —
//! event for event, clock for clock — with `profiling(true)` and
//! `profiling(false)`.
//!
//! [`gcs_sim::EngineProfile`] only reads `Instant` around existing phases;
//! it never touches the event queue, the clocks, or the sink. These tests
//! pin that down across protocols, delay models, and drifting rates, so
//! `gcs run --profile` can never change what a run produces.

use gcs_core::{AOpt, NoSync, Params};
use gcs_graph::topology;
use gcs_sim::{ConstantDelay, DelayModel, Engine, EngineEvent, Protocol, UniformDelay, VecSink};
use gcs_time::{DriftBounds, RateSchedule};

fn run<P: Protocol, D: DelayModel>(
    protocols: Vec<P>,
    delay: D,
    schedules: Vec<RateSchedule>,
    horizon: f64,
    profiling: bool,
) -> (Vec<EngineEvent>, Vec<f64>) {
    let n = protocols.len();
    let mut engine = Engine::builder(topology::path(n))
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(VecSink::default())
        .profiling(profiling)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(horizon);
    let logical = engine.logical_values();
    (engine.into_sink().events, logical)
}

#[test]
fn profiling_leaves_aopt_event_stream_identical() {
    let params = Params::recommended(0.02, 0.25).unwrap();
    let drift = DriftBounds::new(0.02).unwrap();
    let n = 9;
    let schedules = gcs_sim::rates::random_walk(n, drift, 1.0, 60.0, 11);
    let make = |profiling| {
        run(
            vec![AOpt::new(params); n],
            UniformDelay::new(0.25, 5),
            schedules.clone(),
            60.0,
            profiling,
        )
    };
    let (events_off, clocks_off) = make(false);
    let (events_on, clocks_on) = make(true);
    assert!(!events_off.is_empty());
    assert_eq!(events_off, events_on, "event streams must match exactly");
    assert_eq!(clocks_off, clocks_on, "final clocks must match exactly");
}

#[test]
fn profiling_leaves_nosync_event_stream_identical() {
    let drift = DriftBounds::new(0.05).unwrap();
    let n = 4;
    let schedules = gcs_sim::rates::split(n, drift, |v| v < 2);
    let make = |profiling| {
        run(
            vec![NoSync; n],
            ConstantDelay::new(0.1),
            schedules.clone(),
            30.0,
            profiling,
        )
    };
    assert_eq!(make(false), make(true));
}

#[test]
fn profile_accounts_for_the_run() {
    let params = Params::recommended(0.02, 0.25).unwrap();
    let n = 5;
    let mut engine = Engine::builder(topology::path(n))
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(0.25, 5))
        .profiling(true)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(30.0);
    let profile = engine.profile().expect("profiling was enabled");
    assert!(profile.events > 0);
    assert!(profile.protocol_calls > 0);
    assert!(profile.delay_calls > 0);
    assert!(profile.dispatch > std::time::Duration::ZERO);
    // `other()` is a saturating residual, so it is well-defined even under
    // timer-resolution noise.
    let _ = profile.other();

    // Without the builder flag there is no profile at all — the disabled
    // path carries no timing state.
    let mut engine = Engine::builder(topology::path(n))
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(0.25, 5))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(30.0);
    assert!(engine.profile().is_none());
}

#[test]
fn wall_time_accounting_stays_within_elapsed() {
    let params = Params::recommended(0.02, 0.25).unwrap();
    let n = 8;
    let mut engine = Engine::builder(topology::path(n))
        .protocols(vec![AOpt::new(params); n])
        .delay_model(ConstantDelay::new(0.125))
        .profiling(true)
        .build();
    engine.wake_all_at(0.0);
    let started = std::time::Instant::now();
    engine.run_until(60.0);
    let elapsed = started.elapsed();
    let p = engine.profile().expect("profiling was enabled");
    assert!(p.events > 0);
    // Named phases are nested inside dispatch, and dispatch inside the
    // run — the sums can never exceed the containing interval.
    let phases = p.protocol + p.delay + p.snapshot;
    assert!(
        phases <= p.dispatch,
        "phase sum {phases:?} exceeds dispatch {:?}",
        p.dispatch
    );
    assert!(
        p.dispatch <= elapsed,
        "dispatch {:?} exceeds run elapsed {elapsed:?}",
        p.dispatch
    );
}
